//! `cutout_service`: a shared-engine array-serving closed loop.
//!
//! `nproc` sessions share one engine and send a seeded mix to `Tcube`
//! (16 rows, each a 1 MB max-class 64×64×32 `float64` cube; 16 MB of LOB
//! pages, which fits the 32 MB pool, so reads are hot).
//!
//! The mix is synthetic: it covers the layers an array request crosses and
//! is not drawn from any measured query log.
//!
//! | share | request | there for |
//! |---|---|---|
//! | 30 % | 16³ `Subarray` cutout, prepared once, offsets bound as `@vars` | prepared-plan path, LOB pushdown, core subarray |
//! | 30 % | the same cutout as ad-hoc literal text | parse and plan-cache misses |
//! | 10 % | `Item_3` probe | single-element LOB read |
//! | 10 % | `PowerSpectrum` of one 64×64 plane | FFT kernel |
//! | 10 % | `GesvdS` of a 16×16 slab | SVD kernel |
//! | 10 % | `ArrayUpdate` of plane z = 31 of a row the session owns | LOB write path, WAL, single-writer guard |
//!
//! Each kind gets at least one request in ten, so on a 2-vCPU VM every
//! per-kind median of a one-second slice rests on about 150 samples. Cutouts, the
//! paper's case for subsetting inside the server, take the rest, split
//! evenly so the prepared and the parse-per-request paths weigh the same.
//! The write share is a stress setting, not a traffic estimate: readers
//! wait behind each write, so `latency_p99_ms` is the tail of this fixed
//! mix and would move with the share.
//!
//! Every cube element is a closed-form function of the seed, the row and
//! the element index. Readers never touch plane 31 and writers touch
//! nothing else; each row is written by exactly one session, so every read
//! is checked against the generator and the final patched state is known
//! under any interleaving and is checked after the run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::layers::{fresh_db, publish_engine, scan_raw_probe, Counters, CpuWall};
use crate::measure::{median, publish_slices, ratio, rng, Outcome, Slice};
use crate::trace::{Span, SpanLog};
use crate::{span, Config, TraceData};
use sqlarray_core::ops::subarray::subarray;
use sqlarray_core::parallel::with_serial_kernels;
use sqlarray_core::rng::{Rng as _, StdRng};
use sqlarray_core::{SqlArray, StorageClass};
use sqlarray_engine::{
    gesvd_array, power_spectrum_array, Engine, HostingModel, Prepared, QueryResult, Session, Value,
};
use sqlarray_storage::{ColType, RowValue, Schema, PAGE_SIZE};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
const ROWS: usize = 16;
const DIMS: [usize; 3] = [64, 64, 32];
const PLANE: usize = DIMS[0] * DIMS[1];
const ELEMS: usize = PLANE * DIMS[2];
/// Edge of the cutout cube.
const CUT: usize = 16;
/// The plane writers patch; no reader touches it.
const PATCH_Z: usize = DIMS[2] - 1;
/// Requests per session in the counter-repeatability unit.
const COUNT_UNIT: usize = 300;
/// Length of one measurement slice.
const SLICE_S: f64 = 1.0;

const PREPARED_CUTOUT: &str = "SELECT FloatArrayMax.Subarray(v, IntArray.Vector_3(@x, @y, @z), \
     IntArray.Vector_3(16, 16, 16), 0) FROM Tcube WHERE id = @id";

/// The closed-form cube contents: row `id`, column-major element `lin`.
/// Every value is exact in `f64`.
#[derive(Clone, Copy)]
struct Gen {
    frac: f64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            frac: (seed % 1024) as f64 / 1024.0,
        }
    }

    fn value(self, id: usize, lin: usize) -> f64 {
        (id * (1 << 20) + lin) as f64 + self.frac
    }

    /// Plane `PATCH_Z` of row `id` after write number `w` of its owner.
    fn patched(self, id: usize, lin: usize, w: u64) -> f64 {
        self.value(id, lin) + 0.5 + w as f64
    }

    fn cube(self, id: usize) -> SqlArray {
        self.region(id, [0; 3], DIMS)
    }

    /// The elements of a region of row `id`, in column-major order.
    fn region_values(
        self,
        id: usize,
        off: [usize; 3],
        size: [usize; 3],
    ) -> impl Iterator<Item = f64> {
        (0..size[2]).flat_map(move |k| {
            (0..size[1]).flat_map(move |j| {
                (0..size[0]).map(move |i| {
                    self.value(
                        id,
                        (off[0] + i) + DIMS[0] * (off[1] + j) + PLANE * (off[2] + k),
                    )
                })
            })
        })
    }

    /// A region of row `id` as an in-memory array, squeezed like the SQL
    /// `Subarray(…, 1)` calls.
    fn region(self, id: usize, off: [usize; 3], size: [usize; 3]) -> SqlArray {
        let dims: Vec<usize> = size.iter().copied().filter(|&d| d > 1).collect();
        let data: Vec<f64> = self.region_values(id, off, size).collect();
        SqlArray::from_vec(StorageClass::Max, &dims, &data).expect("region")
    }
}

/// One request of the mix.
#[derive(Debug, Clone, Copy)]
enum Req {
    CutPrepared { id: usize, off: [usize; 3] },
    CutAdhoc { id: usize, off: [usize; 3] },
    Item { id: usize, idx: [usize; 3] },
    Spectrum { id: usize, z: usize },
    Svd { id: usize, off: [usize; 3] },
    Write { id: usize },
}

impl Req {
    fn kind(&self) -> &'static str {
        match self {
            Req::CutPrepared { .. } => "cutout_prepared",
            Req::CutAdhoc { .. } => "cutout_adhoc",
            Req::Item { .. } => "item_probe",
            Req::Spectrum { .. } => "power_spectrum",
            Req::Svd { .. } => "gesvd",
            Req::Write { .. } => "array_update",
        }
    }
}

/// The seeded request stream of session `thread` of `threads`.
struct Stream {
    rng: StdRng,
    owned: Vec<usize>,
}

impl Stream {
    fn new(seed: u64, thread: usize, threads: usize) -> Stream {
        Stream {
            rng: rng(seed, 10 + thread as u64),
            owned: (0..ROWS).filter(|id| id % threads == thread).collect(),
        }
    }

    fn next(&mut self) -> Req {
        let r = &mut self.rng;
        let id = r.gen_range(0..ROWS);
        let mut pick = |n: usize| r.gen_range(0..n);
        let cut_off = |pick: &mut dyn FnMut(usize) -> usize| {
            [
                pick(DIMS[0] - CUT + 1),
                pick(DIMS[1] - CUT + 1),
                pick(PATCH_Z - CUT + 1),
            ]
        };
        match pick(20) {
            0..=5 => Req::CutPrepared {
                id,
                off: cut_off(&mut pick),
            },
            6..=11 => Req::CutAdhoc {
                id,
                off: cut_off(&mut pick),
            },
            12 | 13 => Req::Item {
                id,
                idx: [pick(DIMS[0]), pick(DIMS[1]), pick(PATCH_Z)],
            },
            14 | 15 => Req::Spectrum {
                id,
                z: pick(PATCH_Z),
            },
            16 | 17 => Req::Svd {
                id,
                off: [pick(DIMS[0] - 15), pick(DIMS[1] - 15), pick(PATCH_Z)],
            },
            _ if self.owned.is_empty() => Req::Item { id, idx: [0, 0, 0] },
            _ => Req::Write {
                id: self.owned[pick(self.owned.len())],
            },
        }
    }
}

/// A loaded engine, its load measurements, and its generator.
struct Fixture {
    engine: Arc<Engine>,
    gen: Gen,
    load_s: f64,
    commit_s: f64,
    file_bytes: u64,
}

/// Builds `Tcube`, loads it through the bulk path, commits, and reads every
/// cube back in full (the warm-up, checked against the generator).
fn setup(cfg: &Config, log: &mut SpanLog, out: &mut Outcome) -> Fixture {
    let gen = Gen::new(cfg.seed);
    let rows: Vec<(i64, Vec<RowValue>)> = (0..ROWS)
        .map(|id| {
            let cube = gen.cube(id).into_blob();
            (
                id as i64,
                vec![RowValue::I64(id as i64), RowValue::Bytes(cube)],
            )
        })
        .collect();
    let mut db = fresh_db();
    db.create_table(
        "Tcube",
        Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
    )
    .expect("fresh database");
    let t0 = Instant::now();
    let loaded = log.leaf(span::BULK_INSERT, || {
        db.bulk_insert_with_dop("Tcube", &rows, cfg.nproc)
    });
    let load_s = t0.elapsed().as_secs_f64();
    out.check(loaded.is_ok(), || format!("bulk load: {loaded:?}"));
    let t0 = Instant::now();
    log.leaf(span::COMMIT, || db.commit());
    let commit_s = t0.elapsed().as_secs_f64();
    let file_bytes = db.store.file_bytes();
    let fx = Fixture {
        engine: Engine::new(db),
        gen,
        load_s,
        commit_s,
        file_bytes,
    };
    verify_cubes(&fx, &BTreeMap::new(), out);
    fx
}

/// Reads every cube in full and compares it with the generator, plane
/// `PATCH_Z` with the last write of its owner (`last_write`).
fn verify_cubes(fx: &Fixture, last_write: &BTreeMap<usize, u64>, out: &mut Outcome) {
    let mut s = fx.engine.session_with_hosting(HostingModel::free());
    for id in 0..ROWS {
        let r = s.query(&format!("SELECT v FROM Tcube WHERE id = {id}"));
        let ok = r.as_ref().is_ok_and(|r| {
            let Some(a) = single_array(r) else {
                return false;
            };
            a.dims() == DIMS
                && a.elements::<f64>().is_ok_and(|e| {
                    e.iter().enumerate().all(|(lin, &x)| {
                        let want = match last_write.get(&id) {
                            Some(&w) if lin / PLANE == PATCH_Z => fx.gen.patched(id, lin, w),
                            _ => fx.gen.value(id, lin),
                        };
                        x.to_bits() == want.to_bits()
                    })
                })
        });
        out.check(ok, || format!("cube {id} contents"));
    }
}

fn single_array(r: &QueryResult) -> Option<SqlArray> {
    match r.rows.as_slice() {
        [row] if row.len() == 1 => row[0].as_array().ok(),
        _ => None,
    }
}

fn vec3(v: [usize; 3]) -> String {
    format!("IntArray.Vector_3({}, {}, {})", v[0], v[1], v[2])
}

/// One session's client state.
struct Client {
    session: Session,
    prepared: Prepared,
    stream: Stream,
    /// Requests sent in the current window.
    sent: usize,
    gen: Gen,
    writes: u64,
    last_write: BTreeMap<usize, u64>,
    /// Reference power spectra by `(row, plane)`.
    spectra: BTreeMap<(usize, usize), Vec<u8>>,
    /// `(completion time since the window start, kind, seconds, rows
    /// scanned)` per successful request.
    done: Vec<(f64, &'static str, f64, u64)>,
    window_start: Instant,
    counters: Counters,
    cpu: CpuWall,
    cutout_pages: Vec<u64>,
    written_bytes: u64,
    out: Outcome,
    log: SpanLog,
}

impl Client {
    fn new(fx: &Fixture, cfg: &Config, thread: usize, threads: usize, trace: bool) -> Client {
        let mut session = fx.engine.session_with_hosting(HostingModel::free());
        session.set_statement_timeout_ms(None);
        let prepared = session.prepare(PREPARED_CUTOUT).expect("prepare cutout");
        Client {
            session,
            prepared,
            stream: Stream::new(cfg.seed, thread, threads),
            sent: 0,
            gen: fx.gen,
            writes: 0,
            last_write: BTreeMap::new(),
            spectra: BTreeMap::new(),
            done: Vec::new(),
            window_start: Instant::now(),
            counters: Counters::default(),
            cpu: CpuWall::default(),
            cutout_pages: Vec::new(),
            written_bytes: 0,
            out: Outcome::default(),
            log: SpanLog::new(trace, cfg.epoch, thread as u64),
        }
    }

    /// Sends one request, times it, and checks the answer.
    fn request(&mut self) {
        self.sent += 1;
        let req = self.stream.next();
        let s = &mut self.session;
        let log = &mut self.log;
        let root = log.enter(span::REQUEST);
        let t0 = Instant::now();
        let r: Result<QueryResult, _> = match req {
            Req::CutPrepared { id, off } => {
                for (name, v) in [("x", off[0]), ("y", off[1]), ("z", off[2]), ("id", id)] {
                    s.set_var(name, Value::I64(v as i64));
                }
                let p = &self.prepared;
                log.leaf(span::EXECUTE_PREPARED, || s.execute_prepared(p))
                    .map(|mut v| v.swap_remove(0))
            }
            Req::CutAdhoc { id, off } => log.leaf(span::QUERY, || {
                s.query(&format!(
                    "SELECT FloatArrayMax.Subarray(v, {}, {}, 0) FROM Tcube WHERE id = {id}",
                    vec3(off),
                    vec3([CUT; 3])
                ))
            }),
            Req::Item { id, idx } => log.leaf(span::QUERY, || {
                s.query(&format!(
                    "SELECT FloatArrayMax.Item_3(v, {}, {}, {}) FROM Tcube WHERE id = {id}",
                    idx[0], idx[1], idx[2]
                ))
            }),
            Req::Spectrum { id, z } => log.leaf(span::QUERY, || {
                s.query(&format!(
                    "SELECT FloatArrayMax.PowerSpectrum(FloatArrayMax.Subarray(v, {}, {}, 1)) \
                     FROM Tcube WHERE id = {id}",
                    vec3([0, 0, z]),
                    vec3([DIMS[0], DIMS[1], 1])
                ))
            }),
            Req::Svd { id, off } => log.leaf(span::QUERY, || {
                s.query(&format!(
                    "SELECT FloatArrayMax.GesvdS(FloatArrayMax.Subarray(v, {}, {}, 1)) \
                     FROM Tcube WHERE id = {id}",
                    vec3(off),
                    vec3([16, 16, 1])
                ))
            }),
            Req::Write { id } => {
                let w = self.writes;
                let gen = self.gen;
                let plane = SqlArray::from_fn(StorageClass::Max, &[DIMS[0], DIMS[1], 1], |i| {
                    gen.patched(id, i[0] + DIMS[0] * i[1] + PLANE * PATCH_Z, w)
                })
                .expect("patch plane");
                s.set_var("p", Value::Bytes(plane.into_blob()));
                log.leaf(span::EXECUTE, || {
                    s.execute(&format!(
                        "UPDATE Tcube SET v = FloatArrayMax.ArrayUpdate(v, {}, @p) WHERE id = {id}",
                        vec3([0, 0, PATCH_Z])
                    ))
                })
                .map(|mut v| v.swap_remove(0))
            }
        };
        let secs = t0.elapsed().as_secs_f64();
        let chk = log.enter(span::CHECK);
        let ok = r
            .as_ref()
            .is_ok_and(|r| correct(self.gen, &mut self.spectra, req, r));
        log.exit(chk);
        log.exit(root);
        self.out.check(ok, || format!("{req:?}: {r:?}"));
        if let Ok(r) = &r {
            let at = self.window_start.elapsed().as_secs_f64();
            self.done.push((at, req.kind(), secs, r.stats.rows_scanned));
            self.counters.add(&r.stats);
            self.cpu.add(&r.stats);
            if matches!(req, Req::CutPrepared { .. } | Req::CutAdhoc { .. }) {
                self.cutout_pages.push(r.stats.io.logical_reads());
            }
        }
        if let (Req::Write { id }, true) = (req, ok) {
            self.last_write.insert(id, self.writes);
            self.written_bytes += (PLANE * 8) as u64;
        }
        if matches!(req, Req::Write { .. }) {
            self.writes += 1;
        }
    }
}

/// Checks one answer against the generator. `spectra` caches reference
/// power spectra by `(row, plane)`. References are computed with serial
/// kernels, so checking takes no CPU from the engine's workers.
fn correct(
    gen: Gen,
    spectra: &mut BTreeMap<(usize, usize), Vec<u8>>,
    req: Req,
    r: &QueryResult,
) -> bool {
    {
        match req {
            Req::CutPrepared { id, off } | Req::CutAdhoc { id, off } => single_array(r)
                .is_some_and(|a| {
                    a.dims() == [CUT; 3]
                        && a.elements::<f64>().is_ok_and(|e| {
                            e.iter()
                                .map(|x| x.to_bits())
                                .eq(gen.region_values(id, off, [CUT; 3]).map(f64::to_bits))
                        })
                }),
            Req::Item { id, idx } => {
                let lin = idx[0] + DIMS[0] * idx[1] + PLANE * idx[2];
                r.rows == vec![vec![Value::F64(gen.value(id, lin))]]
            }
            Req::Spectrum { id, z } => {
                let want = spectra.entry((id, z)).or_insert_with(|| {
                    let plane = gen.region(id, [0, 0, z], [DIMS[0], DIMS[1], 1]);
                    with_serial_kernels(|| power_spectrum_array(&plane))
                        .expect("spectrum")
                        .into_blob()
                });
                single_array(r).is_some_and(|a| a.as_blob() == want.as_slice())
            }
            Req::Svd { id, off } => {
                let slab = gen.region(id, off, [16, 16, 1]);
                let (_, s, _) = with_serial_kernels(|| gesvd_array(&slab)).expect("svd");
                single_array(r).is_some_and(|a| a.as_blob() == s.as_blob())
            }
            Req::Write { .. } => r.stats.rows_affected == 1 && r.rows.is_empty(),
        }
    }
}

/// What a window of all sessions produced.
struct Window {
    wall_s: f64,
    /// Requests each session completed.
    per_thread: Vec<usize>,
    clients: Vec<Client>,
}

/// Runs every session until the deadline, or for exactly `counts[t]`
/// requests each when given.
fn window(
    fx: &Fixture,
    cfg: &Config,
    seconds: f64,
    counts: Option<&[usize]>,
    trace: bool,
) -> Window {
    let threads = cfg.nproc;
    let mut clients: Vec<Client> = (0..threads)
        .map(|t| Client::new(fx, cfg, t, threads, trace))
        .collect();
    let start = Instant::now();
    for c in &mut clients {
        c.window_start = start;
    }
    std::thread::scope(|scope| {
        for (t, c) in clients.iter_mut().enumerate() {
            scope.spawn(move || loop {
                let done = match counts {
                    Some(k) => c.sent >= k[t],
                    None => c.sent > 0 && start.elapsed().as_secs_f64() >= seconds,
                };
                if done {
                    break;
                }
                c.request();
            });
        }
    });
    let per_thread = clients.iter().map(|c| c.sent).collect();
    let wall_s = start.elapsed().as_secs_f64();
    Window {
        wall_s,
        per_thread,
        clients,
    }
}

/// Folds the sessions' results together and checks the final state.
fn finish_window(fx: &Fixture, w: &mut Window, out: &mut Outcome, spans: &mut Vec<Span>) -> Merged {
    let mut m = Merged::default();
    for c in &mut w.clients {
        out.attempted += c.out.attempted;
        out.failed += c.out.failed;
        out.notes.append(&mut c.out.notes);
        m.done.append(&mut c.done);
        m.cpu.cpu_s += c.cpu.cpu_s;
        m.cpu.capacity_s += c.cpu.capacity_s;
        m.cutout_pages.extend(&c.cutout_pages);
        m.written_bytes += c.written_bytes;
        m.last_write.extend(&c.last_write);
        c.log.drain_into(spans);
    }
    verify_cubes(fx, &m.last_write, out);
    m
}

#[derive(Default)]
struct Merged {
    done: Vec<(f64, &'static str, f64, u64)>,
    cpu: CpuWall,
    cutout_pages: Vec<u64>,
    written_bytes: u64,
    last_write: BTreeMap<usize, u64>,
}

/// A fresh fixture and one session running the first [`COUNT_UNIT`]
/// requests of stream 0 from a cold pool.
fn count_unit(cfg: &Config, out: &mut Outcome) -> Counters {
    let mut quiet = SpanLog::new(false, cfg.epoch, 0);
    let fx = setup(cfg, &mut quiet, out);
    fx.engine.db().store.clear_cache();
    let io0 = fx.engine.db().store.stats();
    let hits0 = fx.engine.stats().plans.hits;
    let mut c = Client::new(&fx, cfg, 0, 1, false);
    for _ in 0..COUNT_UNIT {
        c.request();
    }
    out.attempted += c.out.attempted;
    out.failed += c.out.failed;
    out.notes.append(&mut c.out.notes);
    let mut counters = c.counters.clone();
    counters.io = fx.engine.db().store.stats().since(&io0);
    counters.plan_hits = fx.engine.stats().plans.hits - hits0;
    counters
}

/// Runs the workload.
pub fn run(cfg: &Config) -> (Outcome, TraceData) {
    let mut out = Outcome::default();
    let mut traced = TraceData::default();
    let mut setup_log = SpanLog::new(false, cfg.epoch, 0);
    let mut setup_s = Vec::new();
    let (mut loads, mut commits) = (Vec::new(), Vec::new());
    let mut fx = None;
    for _ in 0..SETUPS {
        drop(fx.take());
        let t0 = Instant::now();
        let f = setup(cfg, &mut setup_log, &mut out);
        setup_s.push(t0.elapsed().as_secs_f64());
        loads.push(f.load_s + f.commit_s);
        commits.push(f.commit_s);
        fx = Some(f);
    }
    let fx = fx.expect("at least one set-up");
    let user_bytes = (ROWS * ELEMS * 8) as f64;
    out.set("setup_s", median(&setup_s));
    out.note(format!("set-ups (s): {setup_s:.4?}"));
    out.set(
        "ingest_rows_per_s",
        median(&loads.iter().map(|s| ROWS as f64 / s).collect::<Vec<_>>()),
    );
    out.set(
        "store_bytes_per_user_byte",
        fx.file_bytes as f64 / user_bytes,
    );

    let (w, m) = if cfg.trace {
        // The same per-session request counts, untraced and then traced,
        // each on a fresh engine so both start from the same plan cache.
        let mut plain = window(&fx, cfg, cfg.seconds / 2.0, None, false);
        let _ = finish_window(&fx, &mut plain, &mut out, &mut traced.spans);
        let fresh = setup(cfg, &mut setup_log, &mut out);
        let io0 = fresh.engine.db().store.stats();
        let e0 = fresh.engine.stats();
        let mut w = window(&fresh, cfg, 0.0, Some(&plain.per_thread), true);
        crate::layers::publish_overhead(plain.wall_s, w.wall_s, &mut out);
        let m = finish_window(&fresh, &mut w, &mut out, &mut traced.spans);
        publish_engine(&e0, &fresh.engine.stats(), &mut out);
        publish_writes(&fresh, &io0, &m, &mut out);
        (w, m)
    } else {
        let io0 = fx.engine.db().store.stats();
        let mut w = window(&fx, cfg, cfg.seconds, None, false);
        let m = finish_window(&fx, &mut w, &mut out, &mut traced.spans);
        publish_writes(&fx, &io0, &m, &mut out);
        (w, m)
    };

    out.note(format!(
        "{} requests in {:.3} s over {} sessions {:?}",
        m.done.len(),
        w.wall_s,
        w.per_thread.len(),
        w.per_thread
    ));
    let slices = slices(&m.done, w.wall_s);
    publish_slices(&slices, &["array_update"], &mut out);
    if !cfg.trace {
        return (out, traced);
    }

    // Per-layer numbers of the traced window.
    out.set("exec.parallel_efficiency", m.cpu.efficiency());
    let pages = median(&m.cutout_pages.iter().map(|&p| p as f64).collect::<Vec<_>>());
    out.set("blob.pages_per_cutout", pages);
    out.set(
        "blob.useful_byte_ratio",
        ratio((CUT * CUT * CUT * 8) as f64, pages * PAGE_SIZE as f64),
    );
    let a = count_unit(cfg, &mut out);
    let b = count_unit(cfg, &mut out);
    a.publish(&b, &mut out);
    out.set("table.bulk_load_ms", median(&loads) * 1e3);
    out.set("store.commit_ms", median(&commits) * 1e3);

    let mut log = SpanLog::new(true, cfg.epoch, cfg.nproc as u64);
    probes(&fx, cfg, &m, &mut log, &mut out);
    out.idle("udf.item_call_ns", "measured on table1_scan");
    out.idle("udf.empty_call_ns", "measured on table1_scan");
    out.idle("udf.item_extract_ns", "measured on table1_scan");
    log.drain_into(&mut traced.spans);
    traced.window_ns = (w.wall_s * 1e9) as u64 * w.per_thread.len() as u64;
    traced.roots = vec![span::REQUEST];
    (out, traced)
}

/// Groups completed requests into [`SLICE_S`] slices of the window by
/// completion time; requests completing after the last whole slice are
/// left out (a window shorter than one slice is one slice).
fn slices(done: &[(f64, &'static str, f64, u64)], wall_s: f64) -> Vec<Slice> {
    let whole = (wall_s / SLICE_S).floor() as usize;
    let (n, len) = if whole == 0 {
        (1, wall_s)
    } else {
        (whole, SLICE_S)
    };
    let empty = Slice {
        wall_s: len,
        ..Slice::default()
    };
    let mut out = vec![empty; n];
    for &(at, kind, secs, rows) in done {
        let i = if whole == 0 {
            0
        } else {
            (at / SLICE_S) as usize
        };
        if let Some(s) = out.get_mut(i) {
            s.push(kind, secs, rows);
        }
    }
    out
}

fn publish_writes(fx: &Fixture, io0: &sqlarray_storage::IoStats, m: &Merged, out: &mut Outcome) {
    let io = fx.engine.db().store.stats().since(io0);
    out.set(
        "wal_bytes_per_user_byte",
        ratio(io.wal_bytes as f64, m.written_bytes as f64),
    );
}

/// Direct calls into the layers the requests reach: raw scan of `Tcube`,
/// the core subarray on an in-memory cube, the FFT and the SVD kernels,
/// and `Session::prepare` on fresh ad-hoc texts.
fn probes(fx: &Fixture, cfg: &Config, m: &Merged, log: &mut SpanLog, out: &mut Outcome) {
    const N: usize = 400;
    let gen = fx.gen;
    let mut rng = rng(cfg.seed, 99);
    let mut cut_off = || {
        [
            rng.gen_range(0..=DIMS[0] - CUT),
            rng.gen_range(0..=DIMS[1] - CUT),
            rng.gen_range(0..=PATCH_Z - CUT),
        ]
    };
    let probe = log.enter(span::PROBE);

    // Every request scans `Tcube`; its own time is its wall time less that.
    let scan = scan_raw_probe(&fx.engine, "Tcube", ROWS as u64, N, log, out);
    out.set("storage.scan_raw_ms", scan);
    let request_ms: Vec<f64> = m.done.iter().map(|d| d.2 * 1e3 - scan).collect();
    out.set("exec.self_ms", median(&request_ms));

    let cube = gen.cube(cfg.seed as usize % ROWS);
    let mut us = Vec::new();
    for _ in 0..N {
        let off = cut_off();
        let t0 = Instant::now();
        let r = log.leaf(span::SUBARRAY, || subarray(&cube, &off, &[CUT; 3], false));
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.check(r.is_ok_and(|a| a.dims() == [CUT; 3]), || {
            "core subarray".into()
        });
    }
    out.set("core.subarray_us", median(&us));

    let plane = gen.region(0, [0, 0, 7], [DIMS[0], DIMS[1], 1]);
    let mut us = Vec::new();
    for _ in 0..N {
        let t0 = Instant::now();
        let r = log.leaf(span::POWER_SPECTRUM, || power_spectrum_array(&plane));
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.check(r.is_ok_and(|a| a.dims() == [DIMS[0], DIMS[1]]), || {
            "power spectrum".into()
        });
    }
    out.set("fft.power_spectrum_us", median(&us));

    let slab = gen.region(0, [8, 8, 7], [16, 16, 1]);
    let mut us = Vec::new();
    for _ in 0..N {
        let t0 = Instant::now();
        let r = log.leaf(span::GESVD, || gesvd_array(&slab));
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.check(r.is_ok_and(|(_, s, _)| s.count() == 16), || "gesvd".into());
    }
    out.set("linalg.gesvd_us", median(&us));

    // Parse cost of ad-hoc texts the mix would send next (mostly misses).
    let s = fx.engine.session_with_hosting(HostingModel::free());
    let mut us = Vec::new();
    for i in 0..N {
        let sql = format!(
            "SELECT FloatArrayMax.Subarray(v, {}, {}, 0) FROM Tcube WHERE id = {}",
            vec3(cut_off()),
            vec3([CUT; 3]),
            i % ROWS
        );
        let t0 = Instant::now();
        let r = log.leaf(span::PREPARE, || s.prepare(&sql));
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.check(r.is_ok(), || format!("prepare {sql}"));
    }
    out.set("tsql.prepare_us", median(&us));
    log.exit(probe);
}
