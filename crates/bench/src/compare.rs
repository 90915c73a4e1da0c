//! Baseline comparison for `BENCH_*.json` results — the bench regression
//! gate behind `repro <exp> --baseline FILE [--noise X]`.
//!
//! The workspace is dependency-free, so this module carries a minimal
//! recursive-descent JSON parser (objects, arrays, strings, numbers,
//! booleans, null — enough for the hand-rolled bench result files) plus
//! the comparison rule: a graph's timing regresses when
//! `current > baseline * (1 + noise)`. Cut changes are reported but do
//! not gate, since quality is covered by the deterministic test suite.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a JSON document. Rejects trailing non-whitespace.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member of an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Elements of an array (empty for non-arrays).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Descend a `/`-separated path of object keys.
    pub fn path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for seg in path.split('/') {
            cur = cur.get(seg)?;
        }
        Some(cur)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unmodified).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// One per-graph, per-variant, per-metric comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// Graph name.
    pub graph: String,
    /// Which variant — any member of the baseline graph entry that
    /// carries a timing (e.g. `full_scan`, `par_coarse`, `streamed`,
    /// `spgemm`, `mis2`, `hierarchy`), discovered from the baseline entry
    /// rather than hardcoded.
    pub variant: String,
    /// Which member of the variant object is being gated —
    /// `refine_seconds` / `seconds` for wall time, `peak_bytes` /
    /// `bytes_per_edge` / `aux_bytes_per_edge` for memory.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Whether this exceeded the noise threshold.
    pub regressed: bool,
}

impl Delta {
    /// Relative change (`+0.12` = 12 % worse than baseline).
    pub fn rel(&self) -> f64 {
        if self.baseline > 0.0 {
            self.current / self.baseline - 1.0
        } else {
            0.0
        }
    }

    fn fmt_value(&self, v: f64) -> String {
        if self.metric.ends_with("seconds") {
            format!("{v:.4}s")
        } else if self.metric == "peak_bytes" {
            format!("{:.2}MiB", v / (1024.0 * 1024.0))
        } else {
            format!("{v:.2}")
        }
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}: {} -> {} ({:+.1}%){}",
            self.graph,
            self.variant,
            self.metric,
            self.fmt_value(self.baseline),
            self.fmt_value(self.current),
            self.rel() * 100.0,
            if self.regressed { "  REGRESSION" } else { "" }
        )
    }
}

/// Outcome of a baseline comparison.
#[derive(Clone, Debug, Default)]
pub struct CompareOutcome {
    /// Every timing pair found in both files.
    pub deltas: Vec<Delta>,
    /// Graphs present in the baseline but missing from the current run
    /// (counted as failures: a silently dropped graph is not a pass).
    pub missing: Vec<String>,
}

impl CompareOutcome {
    /// True when nothing regressed and no baseline graph went missing.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.deltas.iter().all(|d| !d.regressed)
    }
}

/// Compare two `BENCH_*.json` documents. `noise` is the relative
/// threshold: a timing regresses when
/// `current > baseline * (1 + noise)`.
///
/// Timing variants are discovered from each baseline graph entry: every
/// member whose value is an object carrying a `refine_seconds` or
/// `seconds` number is a variant, so the same gate serves all six
/// `bench-*` experiments without a hardcoded list.
///
/// Memory members gate alongside the timing: when a baseline variant also
/// carries `peak_bytes`, `bytes_per_edge`, or `aux_bytes_per_edge`, the
/// current run must report them too and stay within the same noise
/// threshold — a heap-footprint regression fails the gate exactly like a
/// slowdown.
pub fn compare_bench(
    baseline: &Json,
    current: &Json,
    noise: f64,
) -> Result<CompareOutcome, String> {
    let base_graphs = baseline
        .get("graphs")
        .ok_or("baseline has no \"graphs\" array")?;
    let cur_graphs = current
        .get("graphs")
        .ok_or("current result has no \"graphs\" array")?;
    let mut out = CompareOutcome::default();
    for bg in base_graphs.items() {
        let name = bg
            .get("name")
            .and_then(Json::as_str)
            .ok_or("baseline graph entry without a name")?;
        let Some(cg) = cur_graphs
            .items()
            .iter()
            .find(|g| g.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.missing.push(name.to_string());
            continue;
        };
        let Json::Obj(members) = bg else {
            return Err(format!("{name}: baseline graph entry is not an object"));
        };
        let mut found = false;
        for (variant, bv) in members {
            let Some((key, b)) = timing_member(bv) else {
                continue; // not a timing variant (name / n / m / speedup)
            };
            found = true;
            let mut gated: Vec<(&str, f64)> = vec![(key, b)];
            for mem_key in MEMORY_METRICS {
                if let Some(mb) = bv.get(mem_key).and_then(Json::as_f64) {
                    gated.push((mem_key, mb));
                }
            }
            for (key, b) in gated {
                let Some(c) = cg
                    .path(variant)
                    .and_then(|v| v.get(key))
                    .and_then(Json::as_f64)
                else {
                    return Err(format!(
                        "{name}/{variant}: missing {key} in current results"
                    ));
                };
                out.deltas.push(Delta {
                    graph: name.to_string(),
                    variant: variant.clone(),
                    metric: key.to_string(),
                    baseline: b,
                    current: c,
                    regressed: c > b * (1.0 + noise),
                });
            }
        }
        if !found {
            return Err(format!("{name}: baseline entry has no timing variants"));
        }
    }
    Ok(out)
}

/// Memory members gated alongside a variant's timing when the baseline
/// records them.
const MEMORY_METRICS: [&str; 4] = [
    "peak_bytes",
    "bytes_per_edge",
    "bytes_per_vertex",
    "aux_bytes_per_edge",
];

/// The timing number inside a variant object, with the key it was found
/// under (`refine_seconds` for `bench-fm` / `bench-parref` /
/// `bench-kway`, `seconds` for `bench-ingest` / `bench-coarsen` /
/// `bench-map`).
fn timing_member(v: &Json) -> Option<(&'static str, f64)> {
    for key in ["refine_seconds", "seconds"] {
        if let Some(x) = v.get(key).and_then(Json::as_f64) {
            return Some((key, x));
        }
    }
    None
}

/// Load a baseline file, compare against the current results document,
/// print the per-graph deltas, and return the process exit code (0 pass,
/// 1 regression / missing graph, 2 unreadable input).
pub fn run_baseline_gate(baseline_path: &str, current_json: &str, noise: f64) -> i32 {
    let base_text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("baseline gate: cannot read {baseline_path}: {e}");
            return 2;
        }
    };
    let (base, cur) = match (Json::parse(&base_text), Json::parse(current_json)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) => {
            eprintln!("baseline gate: {baseline_path} is not valid JSON: {e}");
            return 2;
        }
        (_, Err(e)) => {
            eprintln!("baseline gate: current results are not valid JSON: {e}");
            return 2;
        }
    };
    let outcome = match compare_bench(&base, &cur, noise) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("baseline gate: {e}");
            return 2;
        }
    };
    println!(
        "baseline gate vs {baseline_path} (noise threshold {:.0}%):",
        noise * 100.0
    );
    for d in &outcome.deltas {
        println!("  {d}");
    }
    for m in &outcome.missing {
        println!("  {m}: MISSING from current results");
    }
    if outcome.passed() {
        println!("baseline gate: PASS");
        0
    } else {
        let n = outcome.deltas.iter().filter(|d| d.regressed).count() + outcome.missing.len();
        println!("baseline gate: FAIL ({n} regression(s))");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_strings_and_nesting() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
        let v = Json::parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(v.path("a").unwrap().items().len(), 2);
        assert_eq!(
            v.path("a").unwrap().items()[1].path("b").unwrap().as_str(),
            Some("x")
        );
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}, extra").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    fn doc(full: f64, boundary: f64) -> Json {
        Json::parse(&format!(
            r#"{{"experiment": "bench-fm", "graphs": [
                {{"name": "g1", "n": 10, "m": 20,
                  "full_scan": {{"cut": 5, "refine_seconds": {full}}},
                  "boundary": {{"cut": 5, "refine_seconds": {boundary}}},
                  "speedup": 1.0}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_passes_within_noise_and_fails_beyond() {
        let base = doc(0.100, 0.050);
        let same = compare_bench(&base, &doc(0.110, 0.055), 0.25).unwrap();
        assert!(same.passed());
        assert_eq!(same.deltas.len(), 2);

        let slow = compare_bench(&base, &doc(0.200, 0.050), 0.25).unwrap();
        assert!(!slow.passed());
        let reg: Vec<_> = slow.deltas.iter().filter(|d| d.regressed).collect();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].variant, "full_scan");
        assert!((reg[0].rel() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn variants_are_discovered_not_hardcoded() {
        // bench-parref names its variants seq_boundary / par_coarse; the
        // gate must pick them up from the baseline entry.
        let doc = |seq: f64, par: f64| {
            Json::parse(&format!(
                r#"{{"experiment": "bench-parref", "graphs": [
                    {{"name": "g1", "n": 10, "m": 20,
                      "seq_boundary": {{"cut": 5, "refine_seconds": {seq}}},
                      "par_coarse": {{"cut": 5, "refine_seconds": {par}}},
                      "speedup": 1.0}}
                ]}}"#
            ))
            .unwrap()
        };
        let base = doc(0.100, 0.050);
        let ok = compare_bench(&base, &doc(0.100, 0.050), 0.25).unwrap();
        assert!(ok.passed());
        let variants: Vec<&str> = ok.deltas.iter().map(|d| d.variant.as_str()).collect();
        assert_eq!(variants, vec!["par_coarse", "seq_boundary"]);

        let slow = compare_bench(&base, &doc(0.100, 0.500), 0.25).unwrap();
        assert!(!slow.passed());
        let reg: Vec<_> = slow.deltas.iter().filter(|d| d.regressed).collect();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].variant, "par_coarse");
    }

    #[test]
    fn plain_seconds_key_is_a_timing_variant() {
        // bench-ingest variants carry "seconds" (build/SpMV wall time)
        // instead of "refine_seconds"; the gate must treat them the same.
        let doc = |inmem: f64, streamed: f64| {
            Json::parse(&format!(
                r#"{{"experiment": "bench-ingest", "graphs": [
                    {{"name": "g1", "n": 10, "m": 20,
                      "inmem": {{"seconds": {inmem}, "aux_bytes_per_edge": 16.0}},
                      "streamed": {{"seconds": {streamed}, "aux_bytes_per_edge": 0.5}}}}
                ]}}"#
            ))
            .unwrap()
        };
        let base = doc(0.100, 0.120);
        let ok = compare_bench(&base, &doc(0.105, 0.125), 0.25).unwrap();
        assert!(ok.passed());
        // Two timing deltas plus two aux_bytes_per_edge memory deltas.
        assert_eq!(ok.deltas.len(), 4);

        let slow = compare_bench(&base, &doc(0.100, 0.500), 0.25).unwrap();
        assert!(!slow.passed());
        let reg: Vec<_> = slow.deltas.iter().filter(|d| d.regressed).collect();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].variant, "streamed");
        assert_eq!(reg[0].metric, "seconds");
    }

    #[test]
    fn memory_regression_fails_the_gate() {
        // A variant whose timing is unchanged but whose peak heap grew
        // beyond the noise threshold must fail exactly like a slowdown.
        let doc = |peak: u64, bpe: f64| {
            Json::parse(&format!(
                r#"{{"experiment": "bench-ingest", "graphs": [
                    {{"name": "g1", "n": 10, "m": 20,
                      "streamed": {{"seconds": 0.100, "peak_bytes": {peak},
                                    "bytes_per_edge": {bpe}}}}}
                ]}}"#
            ))
            .unwrap()
        };
        let base = doc(1_000_000, 50.0);
        let same = compare_bench(&base, &doc(1_050_000, 52.5), 0.25).unwrap();
        assert!(same.passed());
        assert_eq!(same.deltas.len(), 3, "seconds + two memory metrics");

        let bloated = compare_bench(&base, &doc(2_000_000, 100.0), 0.25).unwrap();
        assert!(!bloated.passed());
        let reg: Vec<_> = bloated.deltas.iter().filter(|d| d.regressed).collect();
        assert_eq!(reg.len(), 2);
        assert!(reg.iter().any(|d| d.metric == "peak_bytes"));
        assert!(reg.iter().any(|d| d.metric == "bytes_per_edge"));

        // Shrinking memory never regresses.
        let lean = compare_bench(&base, &doc(500_000, 25.0), 0.0).unwrap();
        assert!(lean.passed());

        // A baseline with memory members requires the current run to
        // report them — silently dropping telemetry is not a pass.
        let no_mem = Json::parse(
            r#"{"graphs": [{"name": "g1",
                "streamed": {"seconds": 0.100}}]}"#,
        )
        .unwrap();
        assert!(compare_bench(&base, &no_mem, 0.25).is_err());
    }

    #[test]
    fn memory_regression_exit_code_is_one() {
        let dir = std::env::temp_dir().join("mlcg-compare-mem-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        std::fs::write(
            &path,
            r#"{"graphs": [{"name": "g1",
                "streamed": {"seconds": 0.1, "peak_bytes": 1000000}}]}"#,
        )
        .unwrap();
        let p = path.to_str().unwrap();
        let cur_bloated = r#"{"graphs": [{"name": "g1",
            "streamed": {"seconds": 0.1, "peak_bytes": 9000000}}]}"#;
        assert_eq!(run_baseline_gate(p, cur_bloated, 0.25), 1);
    }

    #[test]
    fn faster_results_never_regress() {
        let base = doc(0.100, 0.050);
        let fast = compare_bench(&base, &doc(0.010, 0.005), 0.0).unwrap();
        assert!(fast.passed());
    }

    #[test]
    fn missing_graph_fails_the_gate() {
        let base = doc(0.1, 0.1);
        let empty = Json::parse(r#"{"graphs": []}"#).unwrap();
        let out = compare_bench(&base, &empty, 0.25).unwrap();
        assert!(!out.passed());
        assert_eq!(out.missing, vec!["g1".to_string()]);
    }

    #[test]
    fn gate_exit_codes() {
        let dir = std::env::temp_dir().join("mlcg-compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        std::fs::write(
            &path,
            r#"{"graphs": [{"name": "g1",
                "full_scan": {"cut": 1, "refine_seconds": 0.1},
                "boundary": {"cut": 1, "refine_seconds": 0.1}}]}"#,
        )
        .unwrap();
        let p = path.to_str().unwrap();
        let cur_ok = r#"{"graphs": [{"name": "g1",
            "full_scan": {"cut": 1, "refine_seconds": 0.1},
            "boundary": {"cut": 1, "refine_seconds": 0.1}}]}"#;
        let cur_slow = r#"{"graphs": [{"name": "g1",
            "full_scan": {"cut": 1, "refine_seconds": 9.0},
            "boundary": {"cut": 1, "refine_seconds": 0.1}}]}"#;
        assert_eq!(run_baseline_gate(p, cur_ok, 0.25), 0);
        assert_eq!(run_baseline_gate(p, cur_slow, 0.25), 1);
        assert_eq!(run_baseline_gate("/nonexistent/base.json", cur_ok, 0.25), 2);
        assert_eq!(run_baseline_gate(p, "not json", 0.25), 2);
    }
}
