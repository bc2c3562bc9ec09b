//! Single-layer measurements of the assembly side: each calls one crate's
//! public functions from outside, at the sizes the workload runs them at.

use crate::asm::{Shape, READ_LEN};
use crate::gen::{self, Rng};
use crate::util::{median, Metrics};
use fingerprint::{batch_fingerprints, FingerprintScheme, RabinKarp};
use gstream::{ExternalSorter, HostMem, IoStats, KvPair, RecordReader, RecordWriter, SpillDir};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use vgpu::{Device, GpuProfile};

/// Unit of a time the K40 roofline computes from a kernel's operation and
/// byte counts. It is an exact count, the same on every run, and is named
/// apart from measured nanoseconds so that nothing mistakes it for one.
const MODELED_NS: &str = "ns.modeled";

/// Wall and modeled seconds of one kernel call: medians over `reps` calls,
/// each on fresh buffers built by `prepare` outside the timed part.
fn kernel<T>(
    device: &Device,
    reps: usize,
    mut prepare: impl FnMut() -> T,
    mut call: impl FnMut(T),
) -> (f64, f64) {
    let mut walls = Vec::new();
    let mut modeled = Vec::new();
    for _ in 0..=reps {
        let buffers = prepare();
        let before = device.stats().kernel_seconds;
        let start = Instant::now();
        call(buffers);
        walls.push(start.elapsed().as_secs_f64());
        modeled.push(device.stats().kernel_seconds - before);
    }
    // The first call is the warm-up.
    (median(&walls[1..]), median(&modeled[1..]))
}

fn sorted_keys(rng: &mut Rng, n: usize) -> Vec<u128> {
    let mut keys: Vec<u128> = (0..n)
        .map(|_| (rng.next() as u128) << 64 | rng.next() as u128)
        .collect();
    keys.sort_unstable();
    keys
}

/// The five device kernels on arrays of `m_d` pairs, wall beside modeled.
fn vgpu_metrics(m: &mut Metrics, rng: &mut Rng, m_d: usize) {
    // Capacity only bounds allocation; it does not change kernel speed.
    let device = Device::with_capacity(GpuProfile::k40(), 1 << 30);
    let reps = (200_000 / m_d).clamp(5, 200);
    let n = m_d as f64;
    let keys: Vec<u128> = (0..m_d)
        .map(|_| (rng.next() as u128) << 64 | rng.next() as u128)
        .collect();
    let vals: Vec<u32> = (0..m_d as u32).collect();
    let sorted = sorted_keys(rng, m_d);
    let needles = sorted_keys(rng, m_d);
    let indices: Vec<u32> = (0..m_d).map(|_| rng.below(m_d) as u32).collect();
    let counts: Vec<u64> = (0..m_d).map(|_| rng.below(100) as u64).collect();
    let h2d = "device capacity is far above the test arrays";
    let mut sums = (0.0, 0.0);
    let mut put = |name: &str, unit_of: &str, (wall, modeled): (f64, f64)| {
        m.put(
            &format!("vgpu.{name}.wall_ns_per_{unit_of}"),
            wall * 1e9 / n,
            "ns",
        );
        m.put(
            &format!("vgpu.{name}.modeled_ns_per_{unit_of}"),
            modeled * 1e9 / n,
            MODELED_NS,
        );
        sums.0 += wall;
        sums.1 += modeled;
    };

    put(
        "radix",
        "pair",
        kernel(
            &device,
            reps,
            || (device.h2d(&keys).expect(h2d), device.h2d(&vals).expect(h2d)),
            |(mut k, mut v)| {
                device
                    .sort_pairs(&mut k, &mut v)
                    .expect("sorting equal-length buffers")
            },
        ),
    );
    let half = m_d / 2;
    put(
        "merge",
        "pair",
        kernel(
            &device,
            reps,
            || {
                (
                    device.h2d(&sorted[..half]).expect(h2d),
                    device.h2d(&vals[..half]).expect(h2d),
                    device.h2d(&needles[..m_d - half]).expect(h2d),
                    device.h2d(&vals[half..]).expect(h2d),
                )
            },
            |(ak, av, bk, bv)| {
                black_box(
                    device
                        .merge_pairs(&ak, &av, &bk, &bv)
                        .expect("merging equal-length runs"),
                );
            },
        ),
    );
    put(
        "scan",
        "elem",
        kernel(
            &device,
            reps,
            || device.h2d(&counts).expect(h2d),
            |mut buf| {
                device
                    .inclusive_scan(&mut buf)
                    .expect("scanning a resident buffer")
            },
        ),
    );
    put(
        "bounds",
        "key",
        kernel(
            &device,
            reps,
            || {
                (
                    device.h2d(&needles).expect(h2d),
                    device.h2d(&sorted).expect(h2d),
                )
            },
            |(n, h)| {
                black_box(
                    device
                        .vec_lower_bound(&n, &h)
                        .expect("searching a resident buffer"),
                );
            },
        ),
    );
    put(
        "gather",
        "elem",
        kernel(
            &device,
            reps,
            || {
                (
                    device.h2d(&vals).expect(h2d),
                    device.h2d(&indices).expect(h2d),
                )
            },
            |(src, idx)| {
                black_box(
                    device
                        .gather(&src, &idx)
                        .expect("indices are below the source length"),
                );
            },
        ),
    );
    // The model's error as a number: measured host time of the five
    // kernels over the K40 roofline's time for the same calls.
    m.put("vgpu.wall_over_modeled", sums.0 / sums.1, "ratio");
}

fn write_pairs(path: &Path, pairs: &[KvPair], io: &IoStats) -> gstream::Result<()> {
    let mut writer = RecordWriter::create(path, io.clone())?;
    writer.write_all(pairs)?;
    writer.finish().map(|_| ())
}

fn gstream_metrics(
    m: &mut Metrics,
    rng: &mut Rng,
    shape: &Shape,
    workdir: &Path,
) -> gstream::Result<()> {
    let budgets = shape.budgets();
    let spill = SpillDir::create(workdir, IoStats::default())?;
    let io = spill.io().clone();
    // One partition: a tuple per vertex, keys as random as fingerprints.
    let pairs: Vec<KvPair> = (0..shape.reads * 2)
        .map(|v| KvPair::new((rng.next() as u128) << 64 | rng.next() as u128, v as u32))
        .collect();
    let megabytes = (pairs.len() * KvPair::BYTES) as f64 / 1e6;
    let input = workdir.join("layer-input.bin");
    let output = workdir.join("layer-sorted.bin");

    let mut write_walls = Vec::new();
    let mut read_walls = Vec::new();
    let mut sort_walls = Vec::new();
    let sorter = ExternalSorter::new(
        Device::with_capacity(GpuProfile::k40(), budgets.device_bytes),
        HostMem::new(budgets.host_bytes),
        budgets.sort,
    )?;
    for _ in 0..5 {
        let start = Instant::now();
        write_pairs(&input, &pairs, &io)?;
        write_walls.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(RecordReader::open(&input, io.clone())?.read_all()?);
        read_walls.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(sorter.sort_file(&spill, &input, &output)?);
        sort_walls.push(start.elapsed().as_secs_f64());
    }
    m.put(
        "gstream.write_mb_per_s",
        megabytes / median(&write_walls),
        "MB/s",
    );
    m.put(
        "gstream.read_mb_per_s",
        megabytes / median(&read_walls),
        "MB/s",
    );
    m.put(
        "gstream.extsort.mb_per_s",
        megabytes / median(&sort_walls),
        "MB/s",
    );

    // The fsync-and-rename path alone: create and commit a one-record file.
    let tiny = workdir.join("layer-commit.bin");
    let commits: Vec<f64> = (0..20)
        .map(|_| {
            let start = Instant::now();
            write_pairs(&tiny, &pairs[..1], &io).map(|()| start.elapsed().as_secs_f64())
        })
        .collect::<gstream::Result<_>>()?;
    m.put("gstream.commit_ms", median(&commits) * 1e3, "ms");
    for path in [input, output, tiny] {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// `fingerprint.*`, the `vgpu.*` kernel pairs and the `gstream.*` rates, at
/// the block sizes and partition size of `shape`.
pub fn measure(shape: &Shape, seed: u64, workdir: &Path) -> (Metrics, bool) {
    let mut rng = Rng::new(seed, 3);
    let mut m = Metrics::default();

    let device = Device::with_capacity(GpuProfile::k40(), 1 << 30);
    let rk = RabinKarp::new(READ_LEN);
    let batch: Vec<Vec<u8>> = (0..4096)
        .map(|_| gen::random_codes(&mut rng, READ_LEN))
        .collect();
    let walls: Vec<f64> = (0..6)
        .map(|_| {
            let start = Instant::now();
            black_box(batch_fingerprints(
                &device,
                &rk,
                &batch,
                FingerprintScheme::BlockPerRead,
            ));
            start.elapsed().as_secs_f64()
        })
        .collect();
    m.put(
        "fingerprint.ns_per_base",
        median(&walls[1..]) * 1e9 / (batch.len() * READ_LEN) as f64,
        "ns",
    );

    vgpu_metrics(&mut m, &mut rng, shape.budgets().sort.device_block_pairs);
    let ok = match gstream_metrics(&mut m, &mut rng, shape, workdir) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("gstream layer measurement failed: {e}");
            false
        }
    };
    (m, ok)
}
