//! Replay protection on the authenticated wire (see SERVING.md
//! "Query authentication" and ROBUSTNESS.md): every authed connection
//! starts with an `AuthHello` handshake that hands the client a fresh
//! server nonce, and every query binds that nonce plus a strictly
//! increasing per-connection sequence number into its keyed tag. A
//! captured authed frame replayed byte-exactly — on the same
//! connection, on a fresh one, or after a fresh handshake — must be
//! rejected with a typed `AuthFailed`, never re-executed.

use lasagna_repro::gstream;
use lasagna_repro::obs;
use lasagna_repro::prelude::*;
use lasagna_repro::qnet::{
    auth_tag, ClientConfig, QueryClient, Request, Response, Server, ServerConfig, AUTH_KIND_QUERY,
};
use lasagna_repro::qserve::{
    self, ContigStore, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine, QueryService,
    ServiceConfig,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

const SECRET: &str = "replay-test-secret";

fn assemble_into(dir: &Path, seed: u64) {
    let genome = GenomeSim::uniform(2_000, seed).generate();
    let reads = ShotgunSim::error_free(60, 8.0, seed + 1).sample(&genome);
    Pipeline::laptop(AssemblyConfig::for_dataset(40, 60), dir)
        .unwrap()
        .assemble(&reads)
        .unwrap();
}

fn start_authed_server(dir: &Path) -> Server {
    let io = IoStats::default();
    let store = ContigStore::open(&dir.join(qserve::STORE_FILE), &io).unwrap();
    let index = MinimizerIndex::build(&store, &IndexConfig::default());
    let engine = QueryEngine::new(store, index, QueryConfig::default()).unwrap();
    let svc = QueryService::start(engine, ServiceConfig::default(), &obs::Recorder::disabled());
    Server::start(
        svc,
        ServerConfig {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(10),
            auth_secret: Some(SECRET.to_string()),
            ..ServerConfig::default()
        },
        &obs::Recorder::disabled(),
        lasagna_repro::faultsim::Faults::disabled(),
    )
    .unwrap()
}

/// Frame a request and push it down the socket.
fn send(sock: &mut TcpStream, frame: &[u8]) {
    sock.write_all(frame).unwrap();
    sock.flush().unwrap();
}

fn frame_of(req: &Request) -> Vec<u8> {
    let body = req.encode();
    let mut frame = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
    gstream::write_frame(&mut frame, &body).unwrap();
    frame
}

/// Read and decode one response frame.
fn recv(sock: &mut TcpStream) -> Response {
    let payload = gstream::read_frame(sock, "server")
        .unwrap()
        .expect("server must answer, not hang up silently");
    Response::decode(&payload, "server").unwrap()
}

/// Run the `AuthHello` handshake on a raw connection, returning the
/// per-connection nonce the server minted.
fn handshake(sock: &mut TcpStream) -> u64 {
    send(sock, &frame_of(&Request::AuthHello));
    match recv(sock) {
        Response::AuthNonce { nonce } => nonce,
        other => panic!("expected AuthNonce, got {other:?}"),
    }
}

fn connect(server: &Server) -> TcpStream {
    let sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock.set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    sock
}

/// A correctly authed query frame for `reads`, bound to `nonce`/`seq`.
fn authed_query_frame(reads: &[PackedSeq], nonce: u64, seq: u64) -> Vec<u8> {
    let request_id = 0xA11CE;
    let deadline_ms = 5_000;
    let client_id = "replayer";
    let tag = auth_tag(
        SECRET,
        AUTH_KIND_QUERY,
        nonce,
        seq,
        request_id,
        deadline_ms,
        client_id,
        reads,
    );
    frame_of(&Request::Query {
        request_id,
        deadline_ms,
        client_id: client_id.to_string(),
        reads: reads.to_vec(),
        auth_seq: seq,
        auth_tag: tag,
        generation: 0,
    })
}

#[test]
fn a_captured_authed_frame_cannot_be_replayed() {
    let dir = stdx::tempdir().unwrap();
    assemble_into(dir.path(), 80);
    let mut server = start_authed_server(dir.path());
    let reads = vec![PackedSeq::from_codes(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3])];

    // Legitimate exchange: handshake, then one authed query. This is
    // the frame an on-path attacker captures, byte for byte.
    let mut sock = connect(&server);
    let nonce = handshake(&mut sock);
    let captured = authed_query_frame(&reads, nonce, 1);
    send(&mut sock, &captured);
    match recv(&mut sock) {
        Response::Hits {
            request_id, hits, ..
        } => {
            assert_eq!(request_id, 0xA11CE);
            assert_eq!(hits.len(), reads.len());
        }
        other => panic!("the legitimate query must be served, got {other:?}"),
    }

    // Replay 1: the identical bytes on the same connection. The tag
    // still matches, but the sequence number is no longer fresh — the
    // monotonicity gate rejects it without touching a worker.
    send(&mut sock, &captured);
    match recv(&mut sock) {
        Response::AuthFailed { request_id } => assert_eq!(request_id, 0xA11CE),
        other => panic!("same-connection replay must AuthFail, got {other:?}"),
    }

    // The connection survives the rejection: a correctly advanced
    // sequence number is served again.
    send(&mut sock, &authed_query_frame(&reads, nonce, 2));
    assert!(
        matches!(recv(&mut sock), Response::Hits { .. }),
        "the legitimate session continues after a rejected replay"
    );

    // Replay 2: the captured frame on a fresh connection with no
    // handshake. The server minted no nonce for this connection, so
    // authed traffic is rejected outright.
    let mut no_hello = connect(&server);
    send(&mut no_hello, &captured);
    match recv(&mut no_hello) {
        Response::AuthFailed { request_id } => assert_eq!(request_id, 0xA11CE),
        other => panic!("handshake-less replay must AuthFail, got {other:?}"),
    }

    // Replay 3: a fresh connection with its own honest handshake. The
    // new nonce differs from the captured frame's, so the captured tag
    // can never verify — a nonce is good for exactly one connection.
    let mut fresh = connect(&server);
    let fresh_nonce = handshake(&mut fresh);
    assert_ne!(fresh_nonce, nonce, "nonces must be per-connection");
    send(&mut fresh, &captured);
    match recv(&mut fresh) {
        Response::AuthFailed { request_id } => assert_eq!(request_id, 0xA11CE),
        other => panic!("cross-connection replay must AuthFail, got {other:?}"),
    }

    // The production client path still works end to end on the same
    // server: handshake, tag, and sequence all handled internally.
    let mut client = QueryClient::new(
        ClientConfig {
            addr: server.local_addr().to_string(),
            client_id: "honest".to_string(),
            auth_secret: Some(SECRET.to_string()),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        &obs::Recorder::disabled(),
    );
    assert_eq!(client.query_batch(&reads).unwrap().len(), reads.len());

    server.shutdown();
}

#[test]
fn stale_and_reused_sequence_numbers_are_rejected() {
    let dir = stdx::tempdir().unwrap();
    assemble_into(dir.path(), 81);
    let mut server = start_authed_server(dir.path());
    let reads = vec![PackedSeq::from_codes(&[3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0])];

    let mut sock = connect(&server);
    let nonce = handshake(&mut sock);

    // Sequence numbers may skip forward (retries burn sequence room)
    // but never stand still or move backward, even with a valid tag
    // freshly computed for the stale number.
    send(&mut sock, &authed_query_frame(&reads, nonce, 5));
    assert!(matches!(recv(&mut sock), Response::Hits { .. }));
    send(&mut sock, &authed_query_frame(&reads, nonce, 5));
    assert!(
        matches!(recv(&mut sock), Response::AuthFailed { .. }),
        "an equal sequence number must be rejected"
    );
    send(&mut sock, &authed_query_frame(&reads, nonce, 3));
    assert!(
        matches!(recv(&mut sock), Response::AuthFailed { .. }),
        "a backward sequence number must be rejected"
    );
    send(&mut sock, &authed_query_frame(&reads, nonce, 6));
    assert!(
        matches!(recv(&mut sock), Response::Hits { .. }),
        "the next fresh sequence number is served"
    );

    server.shutdown();
}
