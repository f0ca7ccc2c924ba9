//! In-memory spans around the benchmark's calls into each layer,
//! written out as JSONL when the traced pass ends.
//!
//! Nothing inside the crates is instrumented: a span starts and ends
//! in this package's own code. One line of `out/<workload>.spans.jsonl`
//! is one span: `id`, `parent` (an `id` or `null`), `name`, `workload`,
//! `rep`, `start_ns`, `end_ns` (both since the recorder was created)
//! and `self_ns`.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    rep: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Collects the spans of one workload's traced pass.
#[derive(Debug)]
pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new(workload: &'static str) -> Self {
        Recorder {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span times count from; worker threads that time
    /// their own work (campaign jobs) measure against it and hand the
    /// interval to [`Recorder::add`] afterwards.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since [`Recorder::origin`].
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        rep: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            rep,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Start a span now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, rep: u32) -> SpanId {
        let now = self.now_ns();
        self.add(name, parent, rep, now, now)
    }

    /// End a span started by [`Recorder::open`]; returns its duration.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.end_ns - s.start_ns
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        rep: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent, rep);
        let r = f();
        (r, self.close(id))
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover. Children may overlap each
    /// other (campaign jobs on several threads), so the covered part
    /// is the union of their intervals, clipped to the parent.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let line = Value::object([
                ("id", Value::UInt(id as u64)),
                (
                    "parent",
                    s.parent
                        .map_or(Value::Num(f64::NAN), |p| Value::UInt(p as u64)),
                ),
                ("name", Value::str(s.name)),
                ("workload", Value::str(self.workload)),
                ("rep", Value::UInt(u64::from(s.rep))),
                ("start_ns", Value::UInt(s.start_ns)),
                ("end_ns", Value::UInt(s.end_ns)),
                ("self_ns", Value::UInt(self_ns)),
            ]);
            writeln!(w, "{}", line.to_line())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new("t");
        let root = r.add("rep", None, 0, 0, 100);
        // Two overlapping children cover [10, 50); a third covers
        // [70, 80); a fourth sticks out past the parent's end.
        let a = r.add("a", Some(root), 0, 10, 40);
        r.add("b", Some(root), 0, 30, 50);
        r.add("c", Some(root), 0, 70, 80);
        r.add("d", Some(root), 0, 95, 120);
        // A grandchild only counts against its own parent.
        r.add("a1", Some(a), 0, 15, 25);
        let st = r.self_times();
        assert_eq!(st[root], 100 - (40 + 10 + 5));
        assert_eq!(st[a], 30 - 10);
        assert_eq!(st[5], 10, "a leaf's self time is its duration");
        assert_eq!(r.durations("c"), vec![10.0]);
    }

    #[test]
    fn open_close_nest_and_jsonl_has_one_line_per_span() {
        let mut r = Recorder::new("t");
        let outer = r.open("outer", None, 3);
        let ((), inner_ns) = r.time("inner", Some(outer), 3, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        let outer_ns = r.close(outer);
        assert!(outer_ns >= inner_ns);
        let st = r.self_times();
        assert_eq!(st[outer], outer_ns - inner_ns);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("t.spans.jsonl");
        r.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse::parse(lines[0]).unwrap();
        let Value::Object(pairs) = first else {
            panic!("span line is an object")
        };
        assert_eq!(pairs[2], ("name".to_string(), Value::str("outer")));
        assert_eq!(pairs[4], ("rep".to_string(), Value::UInt(3)));
    }
}
