//! Reads the daemon's `OP_METRICS` exposition (the versioned
//! `cbs-telemetry` text format) from outside the process.

use std::collections::BTreeMap;

/// One scrape: counters and gauges by name, histograms as cumulative
/// `(upper bound, count)` buckets (`u64::MAX` for `inf`).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Scrape {
    values: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Vec<(u64, u64)>>,
}

impl Scrape {
    /// Lines with an unknown leading keyword are ignored, as the
    /// format's compatibility rule asks.
    pub fn parse(text: &str) -> Self {
        let mut s = Self::default();
        for line in text.lines() {
            let mut parts = line.split_ascii_whitespace();
            match (parts.next(), parts.next()) {
                (Some("counter" | "gauge"), Some(name)) => {
                    if let Some(v) = parts.next().and_then(|v| v.parse().ok()) {
                        s.values.insert(name.to_owned(), v);
                    }
                }
                (Some("histogram"), Some(name)) => {
                    let buckets = parts
                        .filter_map(|kv| {
                            let (k, v) = kv.split_once('=')?;
                            let bound = match k {
                                "inf" => u64::MAX,
                                _ => k.strip_prefix("le")?.parse().ok()?,
                            };
                            Some((bound, v.parse().ok()?))
                        })
                        .collect();
                    s.histograms.insert(name.to_owned(), buckets);
                }
                _ => {}
            }
        }
        s
    }

    /// A counter or gauge (0 when the daemon never registered it).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `self - base` for a counter.
    pub fn delta(&self, base: &Scrape, name: &str) -> f64 {
        self.value(name) - base.value(name)
    }

    /// The median of a histogram's observations since `base`, linearly
    /// interpolated inside the bucket that holds it. Fixed buckets make
    /// this an estimate; it is a per-layer diagnostic, never gated.
    pub fn histogram_p50_since(&self, base: &Scrape, name: &str) -> f64 {
        let Some(now) = self.histograms.get(name) else {
            return 0.0;
        };
        let before = base.histograms.get(name);
        let cumulative: Vec<(u64, u64)> = now
            .iter()
            .enumerate()
            .map(|(i, &(bound, c))| {
                let b = before.and_then(|b| b.get(i)).map_or(0, |x| x.1);
                (bound, c.saturating_sub(b))
            })
            .collect();
        let total = cumulative.last().map_or(0, |x| x.1);
        if total == 0 {
            return 0.0;
        }
        let half = total as f64 / 2.0;
        let (mut lo_bound, mut lo_count) = (0u64, 0u64);
        for &(bound, count) in &cumulative {
            if count as f64 >= half {
                if bound == u64::MAX {
                    return lo_bound as f64;
                }
                let inside = (count - lo_count).max(1) as f64;
                let frac = (half - lo_count as f64) / inside;
                return lo_bound as f64 + frac * (bound - lo_bound) as f64;
            }
            (lo_bound, lo_count) = (bound, count);
        }
        lo_bound as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# cbs-telemetry v1\n\
        counter profiled.server.err_replies 3\n\
        gauge profiled.agg.edges 50000\n\
        somethingnew x y z\n\
        histogram profiled.server.handler_latency_us count=10 sum=999 le10=2 le100=8 le1000=10 inf=10\n";

    #[test]
    fn counters_gauges_and_unknown_lines() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.value("profiled.server.err_replies"), 3.0);
        assert_eq!(s.value("profiled.agg.edges"), 50_000.0);
        assert_eq!(s.value("never.registered"), 0.0);
        let base = Scrape::parse("counter profiled.server.err_replies 1\n");
        assert_eq!(s.delta(&base, "profiled.server.err_replies"), 2.0);
    }

    #[test]
    fn histogram_median_interpolates_inside_its_bucket() {
        let s = Scrape::parse(TEXT);
        let none = Scrape::default();
        // 10 observations, the 5th lies in (10, 100]: 2 below, 6 inside.
        let p50 = s.histogram_p50_since(&none, "profiled.server.handler_latency_us");
        assert!((p50 - (10.0 + 3.0 / 6.0 * 90.0)).abs() < 1e-9, "{p50}");
        // Since a base that already held the two fastest observations.
        let base = Scrape::parse(
            "histogram profiled.server.handler_latency_us count=2 sum=9 le10=2 le100=2 le1000=2 inf=2\n",
        );
        let p50 = s.histogram_p50_since(&base, "profiled.server.handler_latency_us");
        assert!((p50 - (10.0 + 4.0 / 6.0 * 90.0)).abs() < 1e-9, "{p50}");
        assert_eq!(s.histogram_p50_since(&none, "missing"), 0.0);
    }
}
