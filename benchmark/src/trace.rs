//! In-memory spans around the calls the driver makes into the platform.
//!
//! Tracing is outside the program under test: a span brackets a call (or
//! a phase of calls) made by the benchmark's own loop. Spans are kept in
//! memory and written out when the run ends; a span's self time is its
//! duration minus the part its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. `parent` indexes into the same span list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub rep: u32,
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// Span recorder. Disabled, `enter`/`exit` are a branch and nothing else,
/// so untraced repetitions run the same driver code.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pub rep: u32,
    pub round: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
            round: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
            round: self.round,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        // Spans close innermost-first; anything opened inside and never
        // closed is dropped from the stack with its parent.
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Totals per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own_ns;
    }
    out
}

/// Writes the spans as a JSON array, one object per line.
pub fn write_spans(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"workload\":\"{workload}\",\"rep\":{},\"round\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.rep, s.round
        )?;
    }
    writeln!(w, "]")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", 0, 100, None),
            span("offer", 0, 30, Some(0)),
            span("pump", 30, 90, Some(0)),
            span("pump.call", 35, 55, Some(2)),
            span("pump.call", 60, 85, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 30, 15, 20, 25]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["pump.call"],
            NameTotal {
                count: 2,
                total_ns: 45,
                self_ns: 45
            }
        );
        assert_eq!(totals["pump"].self_ns, 15);
        // Self times partition the root: nothing is counted twice.
        let own: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(own, 100);
    }

    #[test]
    fn tracer_nests_and_tags_rounds() {
        let mut t = Tracer::new(true);
        t.rep = 2;
        t.round = 7;
        let round = t.enter("round");
        let offer = t.enter("offer");
        t.exit(offer);
        let pump = t.enter("pump");
        let _leaked = t.enter("pump.call");
        t.exit(pump);
        t.exit(round);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.rep == 2 && s.round == 7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // The leaked span did not wedge the stack.
        let next = t.enter("round");
        t.exit(next);
        assert_eq!(t.spans()[4].parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("round");
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
