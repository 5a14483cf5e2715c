//! In-memory span recorder. Spans are kept until the run ends and then written
//! as Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
//! (`"ph": "X"`) event per span, with the span id, its parent and the request
//! id it belongs to in `args`.

use serde::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LANE: Cell<u64> = const { Cell::new(0) };
}

/// A small per-thread number for the trace's `tid` column.
fn lane() -> u64 {
    LANE.with(|l| {
        if l.get() == 0 {
            l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
    lane: u64,
}

/// Records spans when enabled; when disabled, `span` only runs its closure, so
/// the same replay code gives the untraced baseline.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

/// Per-layer totals over the direct children of every root span.
pub struct Layers {
    /// (layer, total ms, calls), sorted by name.
    pub rows: Vec<(&'static str, f64, usize)>,
    /// Summed duration of the root spans, in ms.
    pub roots_ms: f64,
    /// Number of root spans.
    pub roots: usize,
}

impl Layers {
    /// Root time no layer span covers.
    pub fn unattributed_ms(&self) -> f64 {
        self.roots_ms - self.rows.iter().map(|r| r.1).sum::<f64>()
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn spans(&self) -> MutexGuard<'_, Vec<Span>> {
        // A panicking replay thread leaves every recorded span intact.
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Run `f` inside a span named `name`; `f` receives the id to pass as the
    /// parent of its own child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start_us = self.now_us();
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent,
                request,
                lane: lane(),
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_us = self.now_us();
        self.spans()[id].end_us = end_us;
        out
    }

    pub fn layers(&self) -> Layers {
        let spans = self.spans();
        let mut rows: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        let (mut roots_ms, mut roots) = (0.0, 0);
        for span in spans.iter() {
            let ms = (span.end_us - span.start_us) / 1e3;
            match span.parent {
                None => {
                    roots_ms += ms;
                    roots += 1;
                }
                Some(p) if spans[p].parent.is_none() => {
                    let row = rows.entry(span.name).or_insert((0.0, 0));
                    row.0 += ms;
                    row.1 += 1;
                }
                Some(_) => {}
            }
        }
        Layers {
            rows: rows.into_iter().map(|(n, (ms, c))| (n, ms, c)).collect(),
            roots_ms,
            roots,
        }
    }

    /// The Chrome trace-event document for every recorded span.
    pub fn chrome_json(&self, meta: Vec<(String, Value)>) -> Result<String, String> {
        let events = self
            .spans()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str("perfbench".into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::F64(s.start_us)),
                    ("dur".into(), Value::F64(s.end_us - s.start_us)),
                    ("pid".into(), Value::U64(1)),
                    ("tid".into(), Value::U64(s.lane)),
                    (
                        "args".into(),
                        Value::Map(vec![
                            ("span".into(), Value::U64(id as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                            ),
                            ("request".into(), Value::U64(s.request)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            ("traceEvents".into(), Value::Seq(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            ("otherData".into(), Value::Map(meta)),
        ]);
        serde_json::to_string(&doc).map_err(|e| format!("serialize trace: {e}"))
    }
}
