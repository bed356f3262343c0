//! Reads the daemon's `/metricsz` Prometheus text and differences two
//! scrapes, so a measurement window sees only its own traffic.

use std::collections::BTreeMap;

/// One scrape: every sample line, keyed by its full series name
/// (`name{labels}` exactly as exposed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses exposition text. Comment and blank lines are skipped, and so
    /// is any line whose value does not parse as a number.
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Label values may hold spaces, so split at the last one.
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            if let Ok(v) = value.parse::<f64>() {
                series.insert(name.trim().to_owned(), v);
            }
        }
        Scrape(series)
    }

    /// The value of one series, `0.0` when absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `self - before`, series by series. Counters and histogram sums
    /// give the window's increase; a gauge gives its change.
    pub fn delta(&self, before: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    /// Sum over every series of family `name`, whatever its labels
    /// (`nvmllc_serve_rejected_total{reason=...}` summed over reasons).
    pub fn family_sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| *k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
            .map(|(_, v)| v)
            .sum()
    }

    /// Mean of histogram `name` from its `_sum` and `_count` series, in
    /// the histogram's unit; `0.0` when the count is zero.
    pub fn mean(&self, name: &str) -> f64 {
        let count = self.get(&format!("{name}_count"));
        if count > 0.0 {
            self.get(&format!("{name}_sum")) / count
        } else {
            0.0
        }
    }
}
