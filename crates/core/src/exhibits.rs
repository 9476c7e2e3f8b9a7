//! The paper's evaluation (§5) as data.
//!
//! An [`Exhibit`] is a table some of whose rows are still
//! [`SweepSpec`] cells, with one function from a row's reports to its
//! numbers. [`run_exhibits`] collects the cells of every exhibit it is
//! handed, simulates each *distinct* cell once — Figure 14 and the
//! 16 MB / 8-pillar / 2-layer columns of Figures 16–18 are Figure 13
//! cells under another spelling — and hands back finished [`Table`]s,
//! which print themselves. DESIGN.md §5 lists the shipped exhibits.
//!
//! Each simulated exhibit also carries `Claim`s: the derived numbers
//! EXPERIMENTS.md quotes (mean deltas, extremes, orderings), computed
//! from the finished table and printed under it, so the prose cannot
//! drift from the record.

use core::fmt;

use nim_power::{pillar_area_vs_router, table2_row, TABLE2_PITCHES_UM};
use nim_workload::BenchmarkProfile;

use crate::experiments::{
    distinct, run_cells, table3_thermal, ExperimentError, ExperimentScale, SweepSpec,
};
use crate::report::RunReport;
use crate::scheme::Scheme;
use crate::txn::Phase;

/// A value column: its head and how its numbers print.
pub(crate) type Column = (&'static str, fn(f64) -> String);

/// A derived number printed under a table: what it is, and how to read
/// it off the finished table.
pub(crate) type Claim = (&'static str, fn(&Table) -> f64);

/// A finished exhibit. `Display` is the one renderer: label column
/// left-aligned, value columns right-aligned to their widest entry, one
/// line per claim underneath.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Heading, as the paper captions it.
    pub title: &'static str,
    /// Head of the label column.
    pub(crate) label: &'static str,
    /// The value columns.
    pub(crate) columns: Vec<Column>,
    /// Row label and one value per column; a value the row lacks prints
    /// as `-`.
    pub(crate) rows: Vec<(String, Vec<f64>)>,
    /// Derived numbers printed under the rows.
    pub(crate) claims: Vec<Claim>,
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head = core::iter::once(self.label).chain(self.columns.iter().map(|c| c.0));
        let mut lines: Vec<Vec<String>> = vec![head.map(str::to_owned).collect()];
        for (label, values) in &self.rows {
            let cell = |(i, (_, print)): (usize, &Column)| values.get(i).map(|&v| print(v));
            let cells = self.columns.iter().enumerate().map(cell);
            let cells = cells.map(|c| c.unwrap_or_else(|| "-".to_owned()));
            lines.push(core::iter::once(label.clone()).chain(cells).collect());
        }
        let width = |c: usize| lines.iter().map(|l| l[c].chars().count()).max();
        let widths: Vec<usize> = (0..=self.columns.len()).filter_map(width).collect();
        for line in &lines {
            write!(f, "{:<w$}", line[0], w = widths[0])?;
            for (cell, w) in line[1..].iter().zip(&widths[1..]) {
                write!(f, "  {cell:>w$}")?;
            }
            writeln!(f)?;
        }
        for (text, read) in &self.claims {
            writeln!(f, "  {text}: {:.2}", read(self))?;
        }
        Ok(())
    }
}

/// A table some of whose rows are still cells.
#[derive(Clone, Debug)]
pub struct Exhibit {
    /// Everything but the simulated rows, which [`run_exhibits`] appends.
    pub(crate) table: Table,
    /// Row label and the cells the row is read from.
    pub(crate) rows: Vec<(String, Vec<SweepSpec>)>,
    /// A row's values from its cells' reports, in cell order.
    pub(crate) read: fn(&[RunReport]) -> Vec<f64>,
}

/// What [`run_exhibits`] hands back.
#[derive(Clone, Debug)]
pub struct Report {
    /// One table per exhibit, in order.
    pub tables: Vec<Table>,
    /// Cells the exhibits list between them.
    pub requested: usize,
    /// Distinct cells among those: the simulations actually run.
    pub simulated: usize,
}

/// Runs `exhibits` as one batch: their cells are collected, duplicates
/// dropped (see [`Report::simulated`]), the rest run once through
/// [`run_cells`], and each row read from its cells' reports. A cell's
/// `benchmark` indexes `benchmarks`.
///
/// # Errors
///
/// Returns the first cell's [`ExperimentError`] in cell order.
pub fn run_exhibits(
    exhibits: Vec<Exhibit>,
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
) -> Result<Report, ExperimentError> {
    let key = |s: &SweepSpec| (s.builder(scale).recipe, benchmarks[s.benchmark].name);
    let same = |a: &SweepSpec, b: &SweepSpec| key(a) == key(b);
    let rows = exhibits.iter().flat_map(|e| &e.rows);
    let requested: Vec<SweepSpec> = rows.flat_map(|(_, cells)| cells).copied().collect();
    let cells = distinct(&requested, same);
    let reports = run_cells(benchmarks, scale, &cells)?;
    let report = |spec: &SweepSpec| {
        let twin = cells.iter().position(|cell| same(cell, spec));
        reports[twin.expect("every requested cell has a distinct twin")].clone()
    };
    let finish = |e: Exhibit| {
        let mut table = e.table;
        for (label, cells) in e.rows {
            let reports: Vec<RunReport> = cells.iter().map(report).collect();
            table.rows.push((label, (e.read)(&reports)));
        }
        table
    };
    Ok(Report {
        tables: exhibits.into_iter().map(finish).collect(),
        requested: requested.len(),
        simulated: cells.len(),
    })
}

// ---------------------------------------------------------------------------
// The shipped record.
// ---------------------------------------------------------------------------

/// The shipped record in print order, each exhibit under the id
/// `nim report` selects it by. The cells index [`BenchmarkProfile::all`].
pub fn shipped() -> Vec<(&'static str, Exhibit)> {
    vec![
        ("table1", table1()),
        ("table2", table2()),
        ("table3", table3()),
        ("fig13", fig13()),
        ("fig14", fig14()),
        ("fig15", fig15()),
        ("fig16", fig16()),
        ("fig17", fig17()),
        ("fig18", fig18()),
    ]
}

/// Two decimals: cycles and degrees.
fn fixed2(v: f64) -> String {
    format!("{v:.2}")
}

fn columns(names: &[&'static str], print: fn(f64) -> String) -> Vec<Column> {
    names.iter().map(|&name| (name, print)).collect()
}

/// The four representative benchmarks of Figures 16–18 (art and galgel
/// with low L1 miss rates, mgrid and swim with high ones — paper §5.2).
const REPRESENTATIVE: [&str; 4] = ["art", "galgel", "mgrid", "swim"];

/// One row per benchmark of [`BenchmarkProfile::all`] (`only` keeps the
/// named ones): `cells` with the benchmark's index filled in.
fn per_benchmark(only: Option<&[&str]>, cells: &[SweepSpec]) -> Vec<(String, Vec<SweepSpec>)> {
    let all = BenchmarkProfile::all();
    let kept = (all.iter().enumerate()).filter(|(_, b)| only.is_none_or(|o| o.contains(&b.name)));
    let row = |benchmark| cells.iter().map(move |&c| SweepSpec { benchmark, ..c });
    kept.map(|(i, b)| (b.name.to_owned(), row(i).collect()))
        .collect()
}

fn hit_latencies(reports: &[RunReport]) -> Vec<f64> {
    reports.iter().map(RunReport::avg_l2_hit_latency).collect()
}

fn column(t: &Table, c: usize) -> impl Iterator<Item = f64> + '_ {
    t.rows.iter().map(move |(_, v)| v[c])
}

/// Column `a` minus column `b`, row by row.
fn deltas(t: &Table, a: usize, b: usize) -> impl Iterator<Item = f64> + '_ {
    t.rows.iter().map(move |(_, v)| v[a] - v[b])
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0.0), |(sum, n), v| (sum + v, n + 1.0));
    sum / n
}

fn min(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

fn max(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::NEG_INFINITY, f64::max)
}

/// An exhibit with nothing left to simulate: constants, or a solve.
fn fixed(
    title: &'static str,
    label: &'static str,
    columns: Vec<Column>,
    rows: impl Iterator<Item = (String, Vec<f64>)>,
) -> Exhibit {
    let table = Table {
        title,
        label,
        columns,
        rows: rows.collect(),
        claims: Vec::new(),
    };
    Exhibit {
        table,
        rows: Vec::new(),
        read: |_| Vec::new(),
    }
}

fn table1() -> Exhibit {
    let power = |w| {
        if w >= 1e-3 {
            format!("{:.2} mW", w * 1e3)
        } else {
            format!("{:.2} uW", w * 1e6)
        }
    };
    let columns: Vec<Column> = vec![("power", power), ("area", |a| format!("{a:.8} mm2"))];
    let rows = nim_power::table1();
    let rows = rows
        .iter()
        .map(|c| (c.name.to_owned(), vec![c.power_w, c.area_mm2]));
    let title = "Table 1 — area and power overhead of the dTDMA bus (90 nm)";
    fixed(title, "component", columns, rows)
}

fn table2() -> Exhibit {
    let area: Column = ("area um2", |a| format!("{a:.1}"));
    let share: Column = ("vs 5-port router", |r| format!("{:.2}%", r * 100.0));
    let row = |&p: &f64| (p.to_string(), vec![table2_row(p), pillar_area_vs_router(p)]);
    let title = "Table 2 — inter-wafer wiring area (170-wire pillar)";
    fixed(
        title,
        "pitch um",
        vec![area, share],
        TABLE2_PITCHES_UM.iter().map(row),
    )
}

/// Table 3: the thermal profile of the seven placement configurations
/// ([`table3_thermal`]).
fn table3() -> Exhibit {
    let rows = table3_thermal().expect("the shipped Table 3 rows place");
    let rows = rows
        .iter()
        .map(|r| (r.config.to_owned(), vec![r.peak_c, r.avg_c, r.min_c]));
    let title = "Table 3 — temperature profile of placement configurations";
    let columns = columns(&["peak C", "avg C", "min C"], fixed2);
    fixed(title, "configuration", columns, rows)
}

/// A figure over benchmarks: one row per benchmark, `cells` per row.
fn figure(
    title: &'static str,
    columns: Vec<Column>,
    only: Option<&[&str]>,
    cells: &[SweepSpec],
    read: fn(&[RunReport]) -> Vec<f64>,
    claims: Vec<Claim>,
) -> Exhibit {
    let table = Table {
        title,
        label: "benchmark",
        columns,
        rows: Vec::new(),
        claims,
    };
    Exhibit {
        table,
        rows: per_benchmark(only, cells),
        read,
    }
}

/// A benchmark's Figure 13 row in any order but the paper's:
/// CMP-DNUCA-2D > CMP-SNUCA-3D > CMP-DNUCA-3D.
fn disordered(t: &Table) -> f64 {
    let ordered = |v: &[f64]| v[1] > v[2] && v[2] > v[3];
    t.rows.iter().filter(|(_, v)| !ordered(v)).count() as f64
}

fn fig13() -> Exhibit {
    figure(
        "Figure 13 — average L2 hit latency (cycles)",
        columns(&Scheme::ALL.map(Scheme::label), fixed2),
        None,
        &Scheme::ALL.map(|s| SweepSpec::new(s, 0)),
        hit_latencies,
        vec![
            ("mean SNUCA-3D - DNUCA-2D", |t| mean(deltas(t, 2, 1))),
            ("mean DNUCA-3D - SNUCA-3D", |t| mean(deltas(t, 3, 2))),
            ("rows not 2D > SNUCA-3D > DNUCA-3D", disordered),
        ],
    )
}

fn fig14() -> Exhibit {
    figure(
        "Figure 14 — block migrations normalised to CMP-DNUCA-2D",
        columns(&["CMP-DNUCA", "CMP-DNUCA-3D"], |v| format!("{v:.3}")),
        None,
        &[Scheme::CmpDnuca2d, Scheme::CmpDnuca, Scheme::CmpDnuca3d].map(|s| SweepSpec::new(s, 0)),
        |reports| {
            let migrations = |r: &RunReport| r.counters.migrations as f64;
            let base = migrations(&reports[0]).max(1.0);
            reports[1..].iter().map(|r| migrations(r) / base).collect()
        },
        vec![
            ("min DNUCA-3D ratio", |t| min(column(t, 1))),
            ("max DNUCA-3D ratio", |t| max(column(t, 1))),
        ],
    )
}

fn fig15() -> Exhibit {
    let mut heads = columns(&Scheme::ALL.map(Scheme::label), |v| format!("{v:.4}"));
    heads.extend(columns(&["SNUCA-3D vs 2D", "DNUCA-3D vs 2D"], |v| {
        format!("{v:+.1} %")
    }));
    figure(
        "Figure 15 — IPC, and the gain over CMP-DNUCA-2D (the cells of Figure 13)",
        heads,
        None,
        &Scheme::ALL.map(|s| SweepSpec::new(s, 0)),
        |reports| {
            let mut row: Vec<f64> = reports.iter().map(RunReport::ipc).collect();
            let gain = |ipc: f64| (ipc / row[1] - 1.0) * 100.0;
            row.extend([gain(row[2]), gain(row[3])]);
            row
        },
        vec![
            ("peak SNUCA-3D gain, %", |t| max(column(t, 4))),
            ("peak DNUCA-3D gain, %", |t| max(column(t, 5))),
        ],
    )
}

fn fig16() -> Exhibit {
    let sized =
        |f| [Scheme::CmpDnuca2d, Scheme::CmpDnuca3d].map(|s| SweepSpec::new(s, 0).l2_scale(f));
    let heads = [
        "16 MB 2D", "16 MB 3D", "32 MB 2D", "32 MB 3D", "64 MB 2D", "64 MB 3D",
    ];
    figure(
        "Figure 16 — avg L2 hit latency vs cache size (cycles)",
        columns(&heads, fixed2),
        Some(&REPRESENTATIVE),
        &[sized(1), sized(2), sized(4)].concat(),
        hit_latencies,
        vec![
            ("mean growth per doubling, 2D", |t| {
                mean(deltas(t, 4, 0)) / 2.0
            }),
            ("mean growth per doubling, 3D", |t| {
                mean(deltas(t, 5, 1)) / 2.0
            }),
        ],
    )
}

/// Cycles the row labelled `benchmark` gains from 8 pillars down to 2.
fn pillar_cost(t: &Table, benchmark: &str) -> f64 {
    let row = t.rows.iter().find(|(label, _)| label == benchmark);
    row.map_or(f64::NAN, |(_, v)| v[2] - v[0])
}

fn fig17() -> Exhibit {
    figure(
        "Figure 17 — impact of the number of pillars (CMP-DNUCA-3D)",
        columns(&["8 pillars", "4 pillars", "2 pillars"], fixed2),
        Some(&REPRESENTATIVE),
        &[8, 4, 2].map(|p| SweepSpec::new(Scheme::CmpDnuca3d, 0).pillars(p)),
        hit_latencies,
        vec![
            ("art, 8 -> 2 pillars", |t| pillar_cost(t, "art")),
            ("galgel, 8 -> 2 pillars", |t| pillar_cost(t, "galgel")),
            ("mgrid, 8 -> 2 pillars", |t| pillar_cost(t, "mgrid")),
            ("swim, 8 -> 2 pillars", |t| pillar_cost(t, "swim")),
        ],
    )
}

fn fig18() -> Exhibit {
    figure(
        "Figure 18 — impact of the number of layers (CMP-SNUCA-3D)",
        columns(&["2 layers", "4 layers"], fixed2),
        Some(&REPRESENTATIVE),
        &[2, 4].map(|l| SweepSpec::new(Scheme::CmpSnuca3d, 0).layers(l)),
        hit_latencies,
        vec![
            ("min cut, 2 -> 4 layers", |t| min(deltas(t, 0, 1))),
            ("max cut, 2 -> 4 layers", |t| max(deltas(t, 0, 1))),
        ],
    )
}

/// The latency-breakdown exhibit, which has no counterpart in the
/// paper: where each scheme's transaction cycles go — horizontal NoC
/// hops, dTDMA pillar waits, tag/bank serialization, L2 service, or
/// off-chip memory. The paper reports only end-to-end means (Fig. 13);
/// this decomposes them with the engine's per-transaction timelines.
/// One row per scheme: `cell` under that scheme.
pub fn breakdown(cell: SweepSpec) -> Exhibit {
    let mut heads = Phase::ALL.map(Phase::name).to_vec();
    heads.push("total");
    let table = Table {
        title: "Latency breakdown — mean cycles per transaction",
        label: "scheme",
        columns: columns(&heads, fixed2),
        ..Table::default()
    };
    let row = |&scheme: &Scheme| {
        (
            scheme.label().to_owned(),
            vec![SweepSpec { scheme, ..cell }],
        )
    };
    Exhibit {
        table,
        rows: Scheme::ALL.iter().map(row).collect(),
        read: |reports| {
            // The total is the sum of the five phase means — the mean
            // end-to-end latency, by the attribution sum invariant.
            let phases = reports[0].latency_breakdown();
            let mut row = phases.to_vec();
            row.push(phases.iter().sum());
            row
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shipped exhibit `id` with only the rows of `benchmarks`.
    fn only(id: &str, benchmarks: &[&str]) -> Exhibit {
        let mut shipped = shipped().into_iter();
        let (_, mut exhibit) = shipped.find(|(known, _)| *known == id).unwrap();
        exhibit
            .rows
            .retain(|(label, _)| benchmarks.contains(&label.as_str()));
        exhibit
    }

    fn run(exhibits: Vec<Exhibit>, scale: ExperimentScale) -> Report {
        run_exhibits(exhibits, &BenchmarkProfile::all(), scale).unwrap()
    }

    /// What the eight drivers this module replaced returned on art and
    /// swim at `ExperimentScale { seed: 42, warmup: 50, sample: 300 }`,
    /// recorded on the commit before they went, one row a line: table,
    /// row label, values (`{:?}` of each `f64`, which parses back to the
    /// same bits). Figure 15's two gain columns are new and not listed.
    const RECORDED: &str = "\
fig13 art 38.01328903654485 51.24666666666667 56.38 48.38666666666666
fig13 swim 37.15384615384615 51.483333333333334 49.92333333333333 44.93333333333333
fig14 art 1.269736842105263 0.6381578947368421
fig14 swim 1.035928143712575 0.4491017964071856
fig15 art 0.43707280832095097 0.3959020902090209 0.39781883856626843 0.4049645390070922
fig15 swim 0.332934131736527 0.27841191066997517 0.31292087542087543 0.31732938522278625
fig16 art 51.24666666666667 48.38666666666666 64.77666666666667 53.17275747508306 78.59333333333333 59.373333333333335
fig16 swim 51.483333333333334 44.93333333333333 59.25 57.95333333333333 75.92333333333333 62.97986577181208
fig17 art 48.38666666666666 45.99333333333333 48.343333333333334
fig17 swim 44.93333333333333 50.95681063122924 48.67
fig18 art 56.38 41.03666666666667
fig18 swim 49.92333333333333 41.17333333333333
breakdown/art CMP-DNUCA 28.9468438538206 0.0 0.0664451827242525 9.0 0.0 38.01328903654485
breakdown/art CMP-DNUCA-2D 32.72 0.0 0.5133333333333333 18.013333333333332 0.0 51.24666666666667
breakdown/art CMP-SNUCA-3D 38.516666666666666 4.166666666666667 1.3933333333333333 12.303333333333333 0.0 56.379999999999995
breakdown/art CMP-DNUCA-3D 32.233333333333334 3.4033333333333333 1.1433333333333333 11.606666666666667 0.0 48.38666666666667
breakdown/swim CMP-DNUCA 27.989966555183948 0.0 0.16387959866220736 9.0 0.0 37.15384615384615
breakdown/swim CMP-DNUCA-2D 32.696666666666665 0.0 1.2733333333333334 17.513333333333332 0.0 51.483333333333334
breakdown/swim CMP-SNUCA-3D 32.46666666666667 3.6766666666666667 2.6333333333333333 11.146666666666667 0.0 49.92333333333334
breakdown/swim CMP-DNUCA-3D 28.0 3.11 2.9633333333333334 10.86 0.0 44.93333333333333
";

    /// The same simulations as the drivers ran, so the same `f64`s to
    /// the last bit.
    #[test]
    fn exhibits_reproduce_the_drivers_they_replaced() {
        let scale = ExperimentScale {
            seed: 42,
            warmup: 50,
            sample: 300,
        };
        let figures = ["fig13", "fig14", "fig15", "fig16", "fig17", "fig18"];
        let mut names: Vec<String> = figures.map(String::from).into();
        let mut exhibits: Vec<Exhibit> = figures.map(|id| only(id, &["art", "swim"])).into();
        let all = BenchmarkProfile::all();
        for benchmark in ["art", "swim"] {
            let index = all.iter().position(|b| b.name == benchmark).unwrap();
            names.push(format!("breakdown/{benchmark}"));
            exhibits.push(breakdown(SweepSpec::new(Scheme::CmpDnuca3d, index)));
        }
        let report = run(exhibits, scale);
        assert_eq!((report.requested, report.simulated), (52, 22));
        let mut simulated = String::new();
        for (name, table) in names.iter().zip(&report.tables) {
            for (label, values) in &table.rows {
                let listed = if name == "fig15" {
                    &values[..4]
                } else {
                    &values[..]
                };
                let values: Vec<String> = listed.iter().map(|v| format!("{v:?}")).collect();
                simulated += &format!("{name} {label} {}\n", values.join(" "));
            }
        }
        assert_eq!(simulated, RECORDED);
        let art = &report.tables[2].rows[0].1;
        assert_eq!(
            art[5],
            (art[3] / art[1] - 1.0) * 100.0,
            "the gain is derived"
        );
    }

    #[test]
    fn the_shipped_record_is_143_cells_of_which_64_are_distinct() {
        let exhibits = shipped();
        let rows = exhibits.iter().flat_map(|(_, e)| &e.rows);
        let requested: Vec<SweepSpec> = rows.flat_map(|(_, cells)| cells).copied().collect();
        assert_eq!(requested.len(), 143, "Figure 15 lists Figure 13's 36 again");
        let all = BenchmarkProfile::all();
        let scale = ExperimentScale::default();
        let key = |s: &SweepSpec| (s.builder(scale).recipe, all[s.benchmark].name);
        assert_eq!(distinct(&requested, |a, b| key(a) == key(b)).len(), 64);
        // Spec equality alone would keep `.pillars(8)`, `.layers(2)` and
        // `.l2_scale(1)` apart from the default they all build.
        assert_eq!(distinct(&requested, |a, b| a == b).len(), 80);
    }

    #[test]
    fn one_deduplicated_batch_equals_each_exhibit_run_alone() {
        let scale = ExperimentScale {
            seed: 7,
            warmup: 20,
            sample: 120,
        };
        let ids: Vec<&str> = shipped().iter().map(|(id, _)| *id).collect();
        let batch = run(ids.iter().map(|id| only(id, &["art"])).collect(), scale);
        assert_eq!((batch.requested, batch.simulated), (22, 11));
        for (id, together) in ids.iter().zip(&batch.tables) {
            let alone = run(vec![only(id, &["art"])], scale);
            assert_eq!(alone.tables[0].rows, together.rows, "{id}");
            assert_eq!(alone.tables[0].to_string(), together.to_string(), "{id}");
        }
    }

    #[test]
    fn representative_set_matches_the_paper() {
        for id in ["fig16", "fig17", "fig18"] {
            let rows = only(id, &REPRESENTATIVE).rows;
            let labels: Vec<&str> = rows.iter().map(|(label, _)| label.as_str()).collect();
            assert_eq!(labels, ["art", "galgel", "mgrid", "swim"], "{id}");
        }
    }

    #[test]
    fn tables_render_aligned_with_claims_underneath() {
        let table = Table {
            title: "not printed: the caller heads the table",
            label: "benchmark",
            columns: vec![("cycles", fixed2), ("vs 2D", |v| format!("{v:+.1} %"))],
            rows: vec![
                ("art".to_owned(), vec![9.999, -12.34]),
                ("a-long-label".to_owned(), vec![1234.5]),
                ("swim".to_owned(), vec![0.0, 5.0]),
            ],
            claims: vec![("mean cycles", |t| mean(column(t, 0)))],
        };
        let expected = "\
benchmark      cycles    vs 2D
art             10.00  -12.3 %
a-long-label  1234.50        -
swim             0.00   +5.0 %
  mean cycles: 414.83
";
        assert_eq!(table.to_string(), expected);
    }
}
