//! Spans recorded by the benchmark around each public call.
//!
//! The program under test is not instrumented: a span here is the
//! benchmark's own clock read before and after a call into one layer.
//! Spans stay in memory and are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `request` is shared by every span of one operation;
/// `point` names the workload point the operation belongs to, if any.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Operation number within the run.
    pub request: u64,
    /// `layer.call`, e.g. `engine.eval.execute`.
    pub name: &'static str,
    /// Workload point, e.g. `ec1_4_2.fb`; empty where there is none.
    pub point: &'static str,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span with no children under the innermost open
    /// span: for calls whose point is only known once they return.
    pub fn leaf(
        &mut self,
        name: &'static str,
        point: &'static str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: self.open.last().copied(),
            request,
            name,
            point,
            start_ns,
            end_ns,
        });
    }

    /// Opens a span under the innermost open span; spans recorded until
    /// the matching [`Tracer::close`] are its descendants.
    pub fn open(&mut self, name: &'static str, point: &'static str, request: u64) {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.leaf(name, point, request, now, now);
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its duration in
    /// nanoseconds; 0 when none is open.
    pub fn close(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let Some(id) = self.open.pop() else { return 0 };
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Closes every span still open: a window can end inside one.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.close();
        }
    }

    /// Runs `f` inside a new span and returns `f`'s result with the span's
    /// duration in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        point: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        self.open(name, point, request);
        let out = f(self);
        (out, self.close())
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self time (ns) per span: its duration minus the time its children
    /// cover. Children never overlap here — one thread records them.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent as usize] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"point\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.request, s.name, s.point, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_parented_and_subtracted() {
        let mut t = Tracer::new();
        t.span("outer", "", 3, |t| {
            t.span("inner", "", 3, |_| std::hint::black_box(1 + 1));
            t.span("inner", "", 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3));
        let own = t.self_times();
        let inner: u64 = t.durations("inner").iter().sum();
        assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns - inner);
        assert_eq!(own[1] + own[2], inner);
    }
}
