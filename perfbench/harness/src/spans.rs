//! Self time from nested spans.
//!
//! A span's self time is its duration minus the part of its interval that
//! its direct children on the same thread cover. Spans on one thread
//! either nest or do not overlap (they come from RAII guards), so a stack
//! walk in start order recovers the tree.

/// One completed span: thread, start and duration in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Category, by convention the layer (`batch`, `thermal`, ...).
    pub cat: String,
    /// Span name within the category.
    pub name: String,
    /// Thread the span ran on.
    pub tid: u64,
    /// Start, microseconds since an arbitrary epoch.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

impl Span {
    fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// Self time of every span, in the order given.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents first: by thread, then start, then the longer span first.
    order.sort_by(|&a, &b| {
        let (x, y) = (&spans[a], &spans[b]);
        x.tid
            .cmp(&y.tid)
            .then(x.start_us.total_cmp(&y.start_us))
            .then(y.dur_us.total_cmp(&x.dur_us))
    });
    let mut covered = vec![0.0; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.tid != s.tid || t.end_us() <= s.start_us {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            let end = s.end_us().min(spans[parent].end_us());
            covered[parent] += end - s.start_us;
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.dur_us - c).max(0.0))
        .collect()
}

/// Summed self time (ms) of the spans matching `cat` and, when given,
/// `name`; `selfs` are the spans' self times from [`self_times`].
pub fn layer_ms(spans: &[Span], selfs: &[f64], cat: &str, name: Option<&str>) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.cat == cat && name.is_none_or(|n| s.name == n))
        .map(|(_, own_us)| own_us / 1e3)
        .sum()
}
