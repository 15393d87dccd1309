//! Per-layer measurements made from outside: the benchmark times its
//! own calls into a layer's public functions on the workload's data.

use crate::measure::median;
use fbp_server::protocol::{Request, Response};
use fbp_vecdb::{Collection, Distance, WeightedEuclidean};
use std::hint::black_box;
use std::time::Instant;

/// Rows per kernel call, the scan's block size.
const BLOCK_ROWS: usize = 256;

/// Median wall time of `reps` runs of `f`, nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// `vecdb.kernels`: the f32 weighted-Euclidean key kernels swept over
/// the collection's whole mirror, block by block, at Q = 1
/// (`eval_key_batch_f32`) and at Q = `fill` (`eval_key_multi_f32`).
/// Returns `(ns per row·dim at Q = 1, ns per row·dim·query at Q =
/// fill, GB/s streamed at Q = 1)`.
pub fn kernels(coll: &Collection, fill: f64) -> (f64, f64, f64) {
    let (rows, dim) = (coll.len(), coll.dim());
    let mirror = coll
        .block_f32(0, rows)
        .expect("served collections carry the f32 mirror");
    let metric = WeightedEuclidean::uniform(dim);
    let reps = (40_000_000 / (rows * dim)).clamp(5, 31);

    let query = &mirror[..dim];
    let mut out = vec![0f32; BLOCK_ROWS];
    let q1 = median_ns(reps, || {
        for block in mirror.chunks(BLOCK_ROWS * dim) {
            let n = block.len() / dim;
            metric.eval_key_batch_f32(query, block, dim, f32::INFINITY, &mut out[..n]);
            black_box(&out);
        }
    });

    let q = (fill.round() as usize).clamp(1, rows);
    let queries = &mirror[..q * dim];
    let bounds = vec![f32::INFINITY; q];
    let mut out = vec![0f32; q * BLOCK_ROWS];
    let multi = median_ns(reps, || {
        for block in mirror.chunks(BLOCK_ROWS * dim) {
            let n = block.len() / dim;
            metric.eval_key_multi_f32(queries, block, dim, &bounds, &mut out[..q * n]);
            black_box(&out);
        }
    });

    let cells = (rows * dim) as f64;
    (q1 / cells, multi / (cells * q as f64), cells * 4.0 / q1)
}

/// `server.protocol`: encode and decode every captured request and
/// reply frame. Returns `(µs to encode one request and its reply, µs to
/// decode both, mean reply bytes)`.
pub fn protocol(frames: &[(Request, Response)]) -> (f64, f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let reps = (20_000 / frames.len()).clamp(3, 200);
    let encode = median_ns(reps, || {
        for (req, resp) in frames {
            black_box(req.encode());
            black_box(resp.encode());
        }
    });
    let bytes: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .map(|(req, resp)| (req.encode(), resp.encode()))
        .collect();
    let decode = median_ns(reps, || {
        for (req, resp) in &bytes {
            black_box(Request::decode(req).expect("captured request decodes"));
            black_box(Response::decode(resp).expect("captured reply decodes"));
        }
    });
    let n = frames.len() as f64;
    let reply_bytes = bytes.iter().map(|(_, r)| r.len() as f64).sum::<f64>() / n;
    (encode / n / 1e3, decode / n / 1e3, reply_bytes)
}
