//! The benchmark-side span recorder: every layer call a traced child
//! replays is wrapped in a span (name, start, end, parent). Spans stay in
//! memory, cross the pipe as text lines, and end up in a Chrome
//! trace-event file (Perfetto-loadable) plus per-span self times.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's
/// epoch; `parent` is the id of the span that was open when this one
/// started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// One-line text form for the child→parent pipe. Names never hold
    /// whitespace, so the name can go last unquoted.
    pub fn to_line(&self) -> String {
        let parent = self.parent.map_or("-".to_string(), |p| p.to_string());
        format!(
            "span {} {parent} {} {} {}",
            self.id, self.start_ns, self.end_ns, self.name
        )
    }

    /// Inverse of [`Span::to_line`] (without the leading `span `).
    pub fn parse(rest: &str) -> Option<Span> {
        let mut it = rest.split_whitespace();
        let id = it.next()?.parse().ok()?;
        let parent = match it.next()? {
            "-" => None,
            p => Some(p.parse().ok()?),
        };
        let start_ns = it.next()?.parse().ok()?;
        let end_ns: u64 = it.next()?.parse().ok()?;
        let name = it.next()?.to_string();
        (it.next().is_none() && end_ns >= start_ns).then_some(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        })
    }
}

/// Single-threaded span recorder: the replay children call layers one
/// after another, so a stack of open spans gives every span its parent.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span called `name`; returns `f`'s value.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        assert!(
            !name.contains(char::is_whitespace),
            "span names carry no whitespace"
        );
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id as usize].end_ns = self.now_ns();
        out
    }

    /// Duration of the most recently finished span called `name`, in ns.
    pub fn last_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .borrow()
            .iter()
            .rev()
            .find(|s| s.name == name && s.end_ns > 0)
            .map(Span::dur_ns)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time of `span`: its duration minus the part of its interval that
/// its direct children cover. Children may overlap each other (spans from
/// concurrent threads), so their intervals are clipped to the parent and
/// merged before subtracting — overlap is never counted twice.
pub fn self_time_ns(spans: &[Span], span: &Span) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for (s, e) in children {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    span.dur_ns() - covered
}

/// Chrome trace-event JSON for the spans of several children: one `pid`
/// per child (the spans of one child are one request), complete (`X`)
/// events with microsecond times, parent and self time in `args`.
pub fn chrome_trace(children: &[(String, Vec<Span>)]) -> String {
    let mut events = Vec::new();
    for (pid, (label, spans)) in children.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(label)
        ));
        for s in spans {
            let parent = s
                .parent
                .and_then(|p| spans.iter().find(|x| x.id == p))
                .map_or(String::new(), |p| escape(&p.name));
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":\"{parent}\",\
                 \"self_us\":{:.3}}}}}",
                escape(&s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                self_time_ns(spans, s) as f64 / 1e3,
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
        ];
        assert_eq!(self_time_ns(&spans, &spans[0]), 70);
        assert_eq!(self_time_ns(&spans, &spans[1]), 20);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,50) and [30,70) overlap on [30,50): covered 60 ns.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
        ];
        assert_eq!(self_time_ns(&spans, &spans[0]), 40);
        // A child nested inside another child covers nothing new.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 90),
            span(2, Some(0), 20, 30),
        ];
        assert_eq!(self_time_ns(&spans, &spans[0]), 20);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_clips_to_the_parent() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 20),
            span(2, Some(1), 12, 18),
            span(3, Some(0), 90, 130), // runs past the parent's end
        ];
        assert_eq!(self_time_ns(&spans, &spans[0]), 80);
        assert_eq!(self_time_ns(&spans, &spans[1]), 4);
    }

    #[test]
    fn recorder_nests_spans_and_lines_roundtrip() {
        let rec = Recorder::new();
        let v = rec.span("outer", || rec.span("inner", || 7) + 1);
        assert_eq!(v, 8);
        assert!(rec.last_ns("outer").unwrap() >= rec.last_ns("inner").unwrap());
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        for s in &spans {
            let line = s.to_line();
            assert_eq!(
                Span::parse(line.strip_prefix("span ").unwrap()).as_ref(),
                Some(s)
            );
        }
        assert_eq!(Span::parse("1 - 5 4 backwards"), None);
        assert_eq!(Span::parse("1 x 1 2 name"), None);
    }

    #[test]
    fn chrome_trace_names_every_span() {
        let spans = vec![span(0, None, 0, 2000), span(1, Some(0), 500, 1500)];
        let json = chrome_trace(&[("replay-0".to_string(), spans)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"s1\"") && json.contains("\"parent\":\"s0\""));
        assert!(json.contains("\"self_us\":1.000"));
    }
}
