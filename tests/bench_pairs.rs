//! `BENCH_pairs.json` checks its own claims.
//!
//! The file at the repository root holds one row per parent / change
//! comparison a change reported: interleaved benchmark pairs (`"kind":
//! "pairs"`) or exact counts such as `hostprof window` instruction totals
//! (`"kind": "exact"`, one pair, no spread). A row names the rule it was
//! judged by and whether the rule was met. This test recomputes each
//! verdict from the row's own numbers, so a row whose `met` disagrees
//! with its medians, pair counts or spread — a mistyped claim — fails.
//!
//! A rule is an object of optional conditions, all of which must hold:
//! - `min_better_share`: the change was better in at least this share of
//!   the pairs;
//! - `gap_over_iqr`: the medians differ, in the better direction, by more
//!   than the parent's interquartile range;
//! - `ratio`: change median ÷ parent median is at least this (a
//!   higher-is-better metric) or at most this (lower-is-better);
//! - `bound`: the change median is at least (higher) or at most (lower)
//!   this value.
//!
//! An empty rule is a number reported, not claimed; its `met` is `null`.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// A parsed JSON value; numbers are `f64`, which holds every count and
/// measurement the file records exactly enough.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// A recursive-descent reader for the JSON the file holds (RFC 8259
/// without `\u` surrogate pairs).
struct Reader<'a> {
    text: &'a str,
    s: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut r = Reader {
            text,
            s: text.as_bytes(),
            at: 0,
        };
        let v = r.value()?;
        r.ws();
        if r.at != r.s.len() {
            return Err(format!("trailing bytes at {}", r.at));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value()? else {
                        return Err(format!("object key at byte {}", self.at));
                    };
                    self.eat(b':')?;
                    let v = self.value()?;
                    if m.insert(k.clone(), v).is_some() {
                        return Err(format!("duplicate key {k:?}"));
                    }
                    self.ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("expected ',' or '}}' at {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(a));
                        }
                        _ => return Err(format!("expected ',' or ']' at {}", self.at)),
                    }
                }
            }
            Some(b'"') => {
                self.at += 1;
                let mut out = String::new();
                loop {
                    let rest = &self.text[self.at..];
                    let mut chars = rest.chars();
                    let c = chars.next().ok_or("unterminated string")?;
                    self.at += c.len_utf8();
                    match c {
                        '"' => return Ok(Json::Str(out)),
                        '\\' => {
                            let e = chars.next().ok_or("unterminated escape")?;
                            self.at += 1;
                            out.push(match e {
                                '"' => '"',
                                '\\' => '\\',
                                '/' => '/',
                                'n' => '\n',
                                't' => '\t',
                                'u' => {
                                    let hex = rest.get(2..6).ok_or("short \\u escape")?;
                                    self.at += 4;
                                    let code =
                                        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                    char::from_u32(code).ok_or("surrogate \\u escape")?
                                }
                                _ => return Err(format!("escape \\{e}")),
                            });
                        }
                        _ => out.push(c),
                    }
                }
            }
            Some(b't') if self.s[self.at..].starts_with(b"true") => {
                self.at += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.at..].starts_with(b"false") => {
                self.at += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.s[self.at..].starts_with(b"null") => {
                self.at += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = self.at;
                while self.at < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.at]) {
                    self.at += 1;
                }
                self.text[start..self.at]
                    .parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(x)) => Ok(*x),
            other => Err(format!("{key}: a number, not {other:?}")),
        }
    }

    fn opt_num(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            Some(Json::Null) => Ok(None),
            _ => self.num(key).map(Some),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            other => Err(format!("{key}: a string, not {other:?}")),
        }
    }
}

/// Whether `row`'s rule holds on its own numbers: `Ok(None)` for a
/// reported number (empty rule), `Ok(Some(verdict))` for a claim, and
/// `Err` for a row that is malformed.
fn verdict(row: &Json) -> Result<Option<bool>, String> {
    let higher = match row.str("better")? {
        "higher" => true,
        "lower" => false,
        b => return Err(format!("better: {b:?}")),
    };
    let kind = row.str("kind")?;
    let pairs = row.num("pairs")?;
    let wins = row.num("change_better")?;
    let (parent, change) = (row.num("parent_median")?, row.num("change_median")?);
    let iqr = row.opt_num("parent_iqr")?;
    if pairs < 1.0 || pairs.fract() != 0.0 || wins < 0.0 || wins > pairs || wins.fract() != 0.0 {
        return Err(format!("{wins} better of {pairs} pairs"));
    }
    match kind {
        "pairs" => {}
        "exact" => {
            // One exact count a side: one pair, no spread, and the change
            // is better exactly when its count is.
            let better = if higher {
                change > parent
            } else {
                change < parent
            };
            if pairs != 1.0 || iqr != Some(0.0) || wins != f64::from(u8::from(better)) {
                return Err("an exact row is one pair with no spread".into());
            }
        }
        k => return Err(format!("kind: {k:?}")),
    }
    if row.str("metric")? == "setup_s" {
        // Set-up time is bimodal on a busy host: its rows give the lower
        // mode beside the median (`null` where it was not recorded).
        for (mode, median) in [("parent_lower_mode", parent), ("change_lower_mode", change)] {
            if row.get(mode).is_none() {
                return Err(format!("{mode} missing"));
            }
            if row.opt_num(mode)?.is_some_and(|m| m > median) {
                return Err(format!("{mode} above the median"));
            }
        }
    }
    let Some(Json::Obj(rule)) = row.get("rule") else {
        return Err("rule: an object".into());
    };
    if rule.is_empty() {
        return Ok(None);
    }
    let sign = if higher { 1.0 } else { -1.0 };
    let mut holds = true;
    for (cond, want) in rule {
        holds &= match (cond.as_str(), want) {
            ("min_better_share", Json::Num(share)) => wins >= share * pairs,
            ("gap_over_iqr", Json::Bool(true)) => {
                let iqr = iqr.ok_or("gap_over_iqr needs the parent's IQR")?;
                sign * (change - parent) > iqr
            }
            ("ratio", Json::Num(r)) => sign * (change / parent - r) >= 0.0,
            ("bound", Json::Num(b)) => sign * (change - b) >= 0.0,
            _ => return Err(format!("rule condition {cond:?}: {want:?}")),
        };
    }
    Ok(Some(holds))
}

/// Checks every row: well formed, and `met` equal to the verdict its own
/// numbers give. Returns the claims found.
fn check(doc: &Json) -> Result<usize, String> {
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return Err("no \"rows\" array".into());
    };
    let mut claims = 0;
    for (i, row) in rows.iter().enumerate() {
        let at = |e: String| format!("row {i} ({:?}): {e}", row.get("metric"));
        for key in ["parent", "change"] {
            let c = row.str(key).map_err(at)?;
            if c.len() < 7 || !c.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(at(format!("{key}: {c:?} is no commit")));
            }
        }
        row.str("workload").map_err(at)?;
        row.opt_num("seed").map_err(at)?;
        let got = verdict(row).map_err(at)?;
        let met = match row.get("met") {
            Some(Json::Bool(b)) => Some(*b),
            Some(Json::Null) => None,
            other => return Err(at(format!("met: {other:?}"))),
        };
        if met != got {
            return Err(at(format!(
                "marked met = {met:?}, its numbers give {got:?}"
            )));
        }
        claims += usize::from(met.is_some());
    }
    Ok(claims)
}

#[test]
fn every_row_of_bench_pairs_meets_its_own_rule() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_pairs.json");
    let text = fs::read_to_string(&path).expect("BENCH_pairs.json at the repository root");
    let doc = Reader::parse(&text).unwrap_or_else(|e| panic!("BENCH_pairs.json: {e}"));
    let claims = check(&doc).unwrap_or_else(|e| panic!("BENCH_pairs.json: {e}"));
    assert!(claims > 0, "the file states no claim");
}

#[test]
fn a_mistyped_claim_fails() {
    let row = |met: &str, change: f64, wins: u32| {
        format!(
            r#"{{"rows": [{{"pr": 1, "parent": "1234567", "change": "abcdef1",
            "workload": "sweep_fig13", "metric": "sim_cycles_per_s", "better": "higher",
            "kind": "pairs", "seed": 42, "pairs": 10, "parent_median": 1.0e6,
            "change_median": {change}, "change_better": {wins}, "parent_iqr": 2.0e4,
            "rule": {{"min_better_share": 0.9, "gap_over_iqr": true, "ratio": 1.1}},
            "met": {met}}}]}}"#
        )
    };
    let checked = |text: String| check(&Reader::parse(&text).expect("parses"));
    assert_eq!(checked(row("true", 1.2e6, 10)), Ok(1));
    assert_eq!(checked(row("false", 1.05e6, 10)), Ok(1), "ratio short");
    for (change, wins) in [(1.05e6, 10), (1.2e6, 8), (1.2e6, 11)] {
        assert!(
            checked(row("true", change, wins)).is_err(),
            "{change} {wins}"
        );
    }
    assert!(
        checked(row("null", 1.2e6, 10)).is_err(),
        "a claim needs a verdict"
    );
}

#[test]
fn the_reader_handles_what_the_file_may_hold() {
    let v = Reader::parse(r#" {"a": [1, -2.5e3, true, false, null], "b": "x\"é\n"} "#);
    let mut m = BTreeMap::new();
    let a = [
        Json::Num(1.0),
        Json::Num(-2500.0),
        Json::Bool(true),
        Json::Bool(false),
        Json::Null,
    ];
    m.insert("a".to_string(), Json::Arr(a.to_vec()));
    m.insert("b".to_string(), Json::Str("x\"é\n".to_string()));
    assert_eq!(v, Ok(Json::Obj(m)));
    for bad in ["{", "[1,]", r#"{"a": 1, "a": 2}"#, "1 2", r#""\q""#] {
        assert!(Reader::parse(bad).is_err(), "{bad}");
    }
}
