//! Order statistics, metric records, and the small JSON writer the result
//! records and the Chrome trace share.

/// Median of the samples (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1` of the samples; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (sample count, "computed", ...), printed
    /// beside it in the human-readable listing.
    pub note: String,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object of the result line.
    pub fn to_json(&self) -> String {
        let mut w = Json::default();
        w.open('{');
        for m in &self.0 {
            w.key(m.name);
            w.open('{');
            w.key("value");
            w.num(m.value);
            w.key("unit");
            w.str(m.unit);
            w.close('}');
        }
        w.close('}');
        w.0
    }
}

/// A minimal streaming JSON writer: tracks comma placement only.
#[derive(Debug, Default)]
pub struct Json(pub String);

impl Json {
    fn sep(&mut self) {
        if !matches!(self.0.chars().last(), None | Some('{' | '[' | ':')) {
            self.0.push(',');
        }
    }

    pub fn open(&mut self, c: char) {
        self.sep();
        self.0.push(c);
    }

    pub fn close(&mut self, c: char) {
        self.0.push(c);
    }

    pub fn key(&mut self, k: &str) {
        self.str(k);
        self.0.push(':');
    }

    /// A number with all its digits (non-finite values become `null`).
    pub fn num(&mut self, v: f64) {
        self.sep();
        if v.is_finite() {
            self.0.push_str(&format!("{v:?}"));
        } else {
            self.0.push_str("null");
        }
    }

    pub fn int(&mut self, v: u64) {
        self.sep();
        self.0.push_str(&v.to_string());
    }

    pub fn str(&mut self, s: &str) {
        self.sep();
        self.0.push('"');
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                c if (c as u32) < 0x20 => self.0.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.0.push(c),
            }
        }
        self.0.push('"');
    }

    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.0.push_str(if b { "true" } else { "false" });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn json_commas_and_escapes() {
        let mut m = Metrics::default();
        m.note("a", 1.5, "s", String::new());
        m.note("b", f64::NAN, "count", String::new());
        assert_eq!(
            m.to_json(),
            r#"{"a":{"value":1.5,"unit":"s"},"b":{"value":null,"unit":"count"}}"#
        );
        let mut w = Json::default();
        w.str("q\"\\\n");
        assert_eq!(w.0, r#""q\"\\\u000a""#);
    }
}
