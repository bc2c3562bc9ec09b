//! The active-message layer.
//!
//! GASNet-style request/response: a node sends a typed request to a peer
//! and blocks on the reply. Every node runs an [`AmServer`] thread that
//! owns the node's *served* resources — the master's block queue on rank 0,
//! each node's completed map-output files during the shuffle ("on reaching
//! the destination, a message reads from the file corresponding to the
//! partition requested and responds with a chunk of data", Section
//! III-E2). Network traffic is charged at the [`crate::NetStats`] model by
//! the requester; rank-local messages are free, as they are under GASNet.

use crate::netmodel::NetStats;
use gstream::spill::Partition;
use gstream::{KvPair, StreamError};
use std::sync::mpsc::{channel, Receiver, Sender};

/// A request an active message can carry.
#[derive(Debug)]
pub enum Request {
    /// Ask the master for the next unprocessed input block.
    GetBlock,
    /// Fetch the map output of `block` for one partition (possibly one
    /// fingerprint range of it, when the future-work range partitioning is
    /// active).
    FetchPartition {
        /// Input block index.
        block: usize,
        /// The partition of the block's map output.
        part: Partition,
    },
    /// Stop the server thread.
    Shutdown,
}

/// The reply to a [`Request`].
#[derive(Debug)]
pub enum Response {
    /// Block assignment: `(block index, start read, end read)`, or `None`
    /// when the input is exhausted.
    Block(Option<(usize, usize, usize)>),
    /// Partition records (empty if the block produced none for this
    /// length).
    Partition(Vec<KvPair>),
    /// Acknowledgement of shutdown.
    Bye,
    /// The serving node failed to read the requested resource (e.g. a
    /// corrupt partition file). Carried back to the requester so storage
    /// corruption fails the phase loudly instead of silently shrinking
    /// the assembly.
    Error(StreamError),
}

type Envelope = (Request, Sender<Response>);

/// Client handle for sending active messages to one node.
#[derive(Clone)]
pub struct AmClient {
    /// Rank of the node this handle addresses.
    pub target: usize,
    tx: Sender<Envelope>,
    net: NetStats,
    faults: faultsim::Faults,
}

impl AmClient {
    /// Thread the `dnet.am` failpoint registry through this handle:
    /// [`AmClient::try_call`] consults it before every send.
    pub fn with_faults(mut self, faults: faultsim::Faults) -> Self {
        self.faults = faults;
        self
    }

    /// [`AmClient::call`] behind the `dnet.am` failpoint: an armed fault
    /// fires *before* the message leaves, modeling a sender that dies
    /// mid-superstep (the message is never delivered, the server side
    /// survives). The cluster driver treats the error as a node failure.
    pub fn try_call(&self, from_rank: usize, req: Request) -> gstream::Result<(Response, f64)> {
        self.faults.hit(faultsim::DNET_AM)?;
        Ok(self.call(from_rank, req))
    }
    /// Send `req` from `from_rank` and wait for the reply. Cross-node
    /// messages are charged to the network model (request header + payload
    /// on the way back); returns the reply and the modeled network seconds
    /// this exchange cost the caller (0 for rank-local messages).
    pub fn call(&self, from_rank: usize, req: Request) -> (Response, f64) {
        let remote = from_rank != self.target;
        let mut seconds = 0.0;
        if remote {
            seconds += self.net.add_message(64); // request header
        }
        let (reply_tx, reply_rx) = channel();
        self.tx
            .send((req, reply_tx))
            .expect("AM server hung up before shutdown");
        let resp = reply_rx.recv().expect("AM server dropped a reply");
        if remote {
            let payload = match &resp {
                Response::Partition(pairs) => (pairs.len() * KvPair::BYTES) as u64,
                Response::Block(_) => 24,
                Response::Bye => 0,
                Response::Error(e) => e.to_string().len() as u64,
            };
            seconds += self.net.add_message(payload);
        }
        (resp, seconds)
    }
}

/// Server side: a handler loop over incoming envelopes.
pub struct AmServer {
    rx: Receiver<Envelope>,
}

impl AmServer {
    /// Create a server and a factory for client handles to it.
    pub fn new(target: usize, net: NetStats) -> (AmClient, AmServer) {
        let (tx, rx) = channel();
        (
            AmClient {
                target,
                tx,
                net,
                faults: faultsim::Faults::disabled(),
            },
            AmServer { rx },
        )
    }

    /// Serve until a [`Request::Shutdown`] arrives. `handler` maps each
    /// request to its response.
    pub fn serve(self, mut handler: impl FnMut(Request) -> Response) {
        while let Ok((req, reply)) = self.rx.recv() {
            let stop = matches!(req, Request::Shutdown);
            let resp = if stop { Response::Bye } else { handler(req) };
            let _ = reply.send(resp);
            if stop {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::NetModel;

    #[test]
    fn request_reply_roundtrip() {
        let net = NetStats::new(NetModel::infiniband_56g());
        let (client, server) = AmServer::new(1, net.clone());
        let handle = std::thread::spawn(move || {
            server.serve(|req| match req {
                Request::GetBlock => Response::Block(Some((0, 0, 10))),
                _ => Response::Bye,
            });
        });
        match client.call(0, Request::GetBlock) {
            (Response::Block(Some((b, s, e))), secs) => {
                assert_eq!((b, s, e), (0, 0, 10));
                assert!(secs > 0.0, "remote call must cost network time");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(client.call(0, Request::Shutdown).0, Response::Bye));
        handle.join().unwrap();
        // One remote request/response pair charged.
        assert!(net.messages() >= 2);
    }

    #[test]
    fn local_messages_are_free() {
        let net = NetStats::new(NetModel::infiniband_56g());
        let (client, server) = AmServer::new(0, net.clone());
        let handle = std::thread::spawn(move || {
            server.serve(|_| Response::Partition(vec![KvPair::new(1, 2)]));
        });
        // from_rank == target: no network charge.
        let (_, secs) = client.call(0, Request::GetBlock);
        assert_eq!(secs, 0.0);
        assert_eq!(net.bytes(), 0);
        client.call(0, Request::Shutdown);
        handle.join().unwrap();
    }

    #[test]
    fn armed_am_failpoint_fails_the_nth_send_without_delivering() {
        let net = NetStats::new(NetModel::infiniband_56g());
        let (client, server) = AmServer::new(1, net.clone());
        let client = client.with_faults(faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::DNET_AM, 2),
        ));
        let handle = std::thread::spawn(move || {
            server.serve(|_| Response::Block(None));
        });
        assert!(client.try_call(0, Request::GetBlock).is_ok());
        let err = client.try_call(0, Request::GetBlock).unwrap_err();
        assert!(
            matches!(&err, StreamError::Fault(f) if f.point == faultsim::DNET_AM && f.occurrence == 2),
            "{err}"
        );
        // One-shot: the retry goes through, and the failed send was never
        // charged to the network model.
        assert!(client.try_call(0, Request::GetBlock).is_ok());
        client.call(0, Request::Shutdown);
        handle.join().unwrap();
        assert_eq!(net.messages(), 6, "2 ok calls + shutdown, 2 legs each");
    }

    #[test]
    fn partition_payloads_are_charged_by_size() {
        let net = NetStats::new(NetModel::infiniband_56g());
        let (client, server) = AmServer::new(1, net.clone());
        let handle = std::thread::spawn(move || {
            server.serve(|_| Response::Partition(vec![KvPair::new(0, 0); 10]));
        });
        client.call(0, Request::GetBlock);
        client.call(0, Request::Shutdown);
        handle.join().unwrap();
        // 64 B header + 200 B payload (+ shutdown header).
        assert!(net.bytes() >= 264, "bytes {}", net.bytes());
    }
}
