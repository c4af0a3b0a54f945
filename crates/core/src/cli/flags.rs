//! The flag table: every flag `parqp` knows is one row of [`flags!`] —
//! name and alias, help fragment, value type, default and accepted
//! range — and [`parse`] is the one parser that reads it. A default is
//! taken from the config type that owns the setting, so the table and
//! the library cannot drift.

use super::CliError;
use parqp_data::paged::StoreConfig;
use parqp_serve::{FaultSetup, ServeConfig, TEMPLATES};

/// What a flag's value is, what it is when the flag is absent, and the
/// range a given value must lie in.
#[derive(Debug, Clone, Copy)]
pub(super) enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// One word: a query, a file, a name its command matches.
    Text,
    /// Every word up to the next `--flag` (`--data r.csv s.csv`).
    List,
    /// An unsigned integer in `min..=max`.
    Count { default: u64, min: u64, max: u64 },
    /// A finite real `>= 0` (the Zipf exponents).
    Real { default: f64 },
}

/// One row of the table.
#[derive(Debug, Clone, Copy)]
pub(super) struct Spec {
    pub name: &'static str,
    pub alias: Option<&'static str>,
    /// The value's placeholder in a one-line summary (`--servers P`).
    pub help: &'static str,
    pub kind: Kind,
}

macro_rules! flags {
    ($($id:ident $name:literal $(| $alias:literal)? $help:literal $kind:expr;)*) => {
        /// A flag's identity: what command rows list and bodies ask
        /// [`Args`] for.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(super) enum Flag { $($id),* }

        impl Flag {
            /// Every row, in table order.
            pub const ALL: &'static [Flag] = &[$(Flag::$id),*];

            /// The flag's row. Built on demand: the defaults are values
            /// of `Default` impls, which are not `const`.
            pub fn spec(self) -> Spec {
                match self {
                    $(Flag::$id => Spec {
                        name: $name,
                        alias: None$(.or(Some($alias)))?,
                        help: $help,
                        kind: $kind,
                    }),*
                }
            }
        }
    };
}

// Ceilings: far above anything the paper, the docs or CI run, and low
// enough that a value cannot overflow a capacity or exhaust memory
// before a typed error is possible. A refused allocation, or a thread
// that cannot map its guard page, aborts the process from inside the
// runtime where nothing can catch it, so an absurd request has to be a
// parse error.
const ANY: u64 = u64::MAX;
/// Simulated servers, worker threads of `--exec parallel`, tenants.
const MAX_SERVERS: u64 = 1024;
/// Rows and key domain of a generated relation.
const MAX_GENERATED: u64 = 1 << 24;
/// Scheduled faults per kind, and the rounds they are scheduled over.
const MAX_FAULTS: u64 = 1024;
/// Ticks of a serve replay, and what is drawn per tick.
const MAX_TICKS: u64 = 1 << 20;

const fn count(default: u64, min: u64, max: u64) -> Kind {
    Kind::Count { default, min, max }
}

fn serve() -> ServeConfig {
    ServeConfig::default()
}

fn faults() -> FaultSetup {
    FaultSetup::default()
}

fn store() -> StoreConfig {
    StoreConfig::default()
}

flags! {
    Query       "--query"          "Q"     Kind::Text;
    Data        "--data"           "F..."  Kind::List;
    Servers     "--servers" | "-p" "P"     count(64, 1, MAX_SERVERS);
    Seed        "--seed"           "S"     count(serve().seed, 0, ANY);
    Out         "--out"            "F"     Kind::Text;
    Kind        "--kind"           "uniform|zipf|graph" Kind::Text;
    Rows        "--rows"           "N"     count(10_000, 0, MAX_GENERATED);
    Domain      "--domain"         "D"     count(1000, 0, MAX_GENERATED);
    Alpha       "--alpha"          "A"     Kind::Real { default: 1.0 };
    Experiment  "--experiment"     "E"     Kind::Text;
    Format      "--format"         "NAME"  Kind::Text;
    Strategy    "--strategy"       "checkpoint|replication" Kind::Text;
    Every       "--every"          "K"     count(4, 1, MAX_FAULTS);
    Replicas    "--replicas"       "R"     count(3, 1, MAX_FAULTS);
    Crashes     "--crashes"        "N"     count(faults().spec.crashes as u64, 0, MAX_FAULTS);
    Drops       "--drops"          "N"     count(faults().spec.drops as u64, 0, MAX_FAULTS);
    Duplicates  "--duplicates"     "N"     count(faults().spec.duplicates as u64, 0, MAX_FAULTS);
    Stragglers  "--stragglers"     "N"     count(faults().spec.stragglers as u64, 0, MAX_FAULTS);
    Horizon     "--horizon"        "H"     count(faults().horizon as u64, 0, MAX_FAULTS);
    Check       "--check"          "BENCH_parqp.json" Kind::Text;
    Exec        "--exec"           "serial|parallel" Kind::Text;
    Workers     "--workers"        "N"     count(0, 0, MAX_SERVERS);
    PageSize    "--page-size"      "W"     count(store().page_size as u64, 1, ANY);
    PoolPages   "--pool-pages"     "N"     count(store().pool_pages as u64, 1, ANY);
    Tenants     "--tenants"        "T"     count(serve().tenants as u64, 1, MAX_SERVERS);
    Templates   "--templates"      "K"     count(serve().templates as u64, 1, TEMPLATES.len() as u64);
    Groups      "--groups"         "G"     count(serve().groups as u64, 1, MAX_TICKS);
    Ticks       "--ticks"          "N"     count(serve().ticks, 1, MAX_TICKS);
    ZipfQ       "--zipf-q"         "A"     Kind::Real { default: serve().zipf_q };
    ZipfData    "--zipf-data"      "A"     Kind::Real { default: serve().zipf_data };
    CacheBudget "--cache-budget"   "B"     count(serve().cache_budget, 0, ANY);
    Faults      "--faults"         ""      Kind::Switch;
    Verify      "--verify"         ""      Kind::Switch;
    Obs         "--obs"            ""      Kind::Switch;
    Window      "--window"         "W"     count(8, 1, MAX_TICKS);
    Slo         "--slo"            "F"     Kind::Text;
    Preset      "--preset"         "steady|cold|faulted" Kind::Text;
}

/// Flags every command takes (the `global` block of the usage text).
pub(super) const GLOBAL: &[Flag] = &[Flag::Exec, Flag::Workers, Flag::PageSize, Flag::PoolPages];

/// One invocation's flags as given, each value already checked against
/// its row: an accessor returns the value, or the row's default.
#[derive(Debug)]
pub(super) struct Args(Vec<(Flag, Vec<String>)>);

/// A count above its ceiling — the row's, or one only the command can
/// know (`generate`'s edges of a graph).
pub(super) fn too_large(flag: Flag, max: u64, got: u64) -> CliError {
    CliError::Flag(format!("{}: at most {max} (got {got})", flag.spec().name))
}

/// A word outside the closed set its command matches it against.
pub(super) fn unknown_choice(flag: Flag, got: &str, choices: &[&str]) -> CliError {
    let (name, choices) = (flag.spec().name, choices.join("|"));
    CliError::Flag(format!("unknown {name} {got:?} ({choices})"))
}

/// Check the word given to a numeric flag against the row's range.
fn check(flag: Flag, word: &str) -> Result<(), CliError> {
    let name = flag.spec().name;
    let bad = |e: &dyn std::fmt::Display| CliError::Flag(format!("{name}: {e}"));
    match flag.spec().kind {
        Kind::Count { min, max, .. } => match word.parse::<u64>().map_err(|e| bad(&e))? {
            got if got < min && min == 1 => Err(CliError::Flag(format!("{name} must be positive"))),
            got if got < min => Err(bad(&format!("at least {min} (got {got})"))),
            got if got > max => Err(too_large(flag, max, got)),
            _ => Ok(()),
        },
        Kind::Real { .. } => match word.parse::<f64>().map_err(|e| bad(&e))? {
            got if got.is_finite() && got >= 0.0 => Ok(()),
            got => Err(CliError::Flag(format!(
                "{name} must be a finite exponent >= 0 (got {got})"
            ))),
        },
        _ => Ok(()),
    }
}

/// Parse `argv` (the words after the command) for a command whose row
/// accepts `accepts` beside the [`GLOBAL`] flags. Every argv-shaped
/// failure — unknown flag, misplaced flag, missing value, unparsable or
/// out-of-range value — is produced here and nowhere else.
pub(super) fn parse(command: &str, accepts: &[Flag], argv: &[String]) -> Result<Args, CliError> {
    let mut given: Vec<(Flag, Vec<String>)> = Vec::new();
    let mut words = argv.iter().peekable();
    while let Some(word) = words.next() {
        let rows = Flag::ALL.iter().map(|&flag| (flag, flag.spec()));
        let named = |(_, s): &(Flag, Spec)| s.name == word || s.alias == Some(word.as_str());
        let Some((flag, spec)) = rows.into_iter().find(named) else {
            return Err(CliError::Flag(format!("unknown option {word:?}")));
        };
        if !accepts.contains(&flag) && !GLOBAL.contains(&flag) {
            let takes: Vec<String> = accepts
                .iter()
                .map(|f| format!("{} {}", f.spec().name, f.spec().help))
                .map(|row| row.trim_end().to_string())
                .collect();
            return Err(CliError::Flag(format!(
                "{} is not an option of `parqp {command}` (it takes {})",
                spec.name,
                takes.join(", ")
            )));
        }
        let mut values = Vec::new();
        if !matches!(spec.kind, Kind::Switch) {
            // The message names the flag as it was typed (`-p`).
            let missing = || CliError::Flag(format!("{word} requires a value"));
            let first = words.next().ok_or_else(missing)?;
            check(flag, first)?;
            values.push(first.clone());
        }
        let list = matches!(spec.kind, Kind::List);
        while let Some(next) = words.next_if(|w| list && !w.starts_with("--")) {
            values.push(next.clone());
        }
        match given.iter_mut().find(|(f, _)| *f == flag) {
            // A repeated `--data` extends the list; any other flag is
            // what its last occurrence says.
            Some((_, earlier)) if list => earlier.extend(values),
            Some((_, earlier)) => *earlier = values,
            None => given.push((flag, values)),
        }
    }
    Ok(Args(given))
}

impl Args {
    fn given(&self, flag: Flag) -> Option<&[String]> {
        let found = self.0.iter().find(|(f, _)| *f == flag);
        found.map(|(_, values)| values.as_slice())
    }

    /// Whether the flag was given at all.
    pub fn is_set(&self, flag: Flag) -> bool {
        self.given(flag).is_some()
    }

    /// Every word of a [`Kind::List`] flag; empty when absent.
    pub fn list(&self, flag: Flag) -> &[String] {
        self.given(flag).unwrap_or_default()
    }

    /// The word of a [`Kind::Text`] flag.
    pub fn text(&self, flag: Flag) -> Option<&str> {
        self.list(flag).first().map(String::as_str)
    }

    /// [`text`](Self::text), or the error naming the flag as required.
    pub fn required(&self, flag: Flag) -> Result<&str, CliError> {
        let missing = || CliError::Flag(format!("{} is required", flag.spec().name));
        self.text(flag).ok_or_else(missing)
    }

    /// The word of a [`Kind::Text`] flag that must be one of `choices`;
    /// the first choice when the flag is absent.
    pub fn choice<'a>(&'a self, flag: Flag, choices: &[&'a str]) -> Result<&'a str, CliError> {
        let got = self.text(flag).or(choices.first().copied()).unwrap_or("");
        let found = choices.iter().find(|c| **c == got).copied();
        found.ok_or_else(|| unknown_choice(flag, got, choices))
    }

    /// A [`Kind::Count`] flag as a full-width word (`--seed`).
    pub fn word(&self, flag: Flag) -> u64 {
        let given = self.text(flag).and_then(|w| w.parse().ok());
        match flag.spec().kind {
            Kind::Count { default, .. } => given.unwrap_or(default),
            _ => 0,
        }
    }

    /// A [`Kind::Count`] flag as a size.
    pub fn count(&self, flag: Flag) -> usize {
        usize::try_from(self.word(flag)).unwrap_or(usize::MAX)
    }

    /// A [`Kind::Real`] flag.
    pub fn real(&self, flag: Flag) -> f64 {
        let given = self.text(flag).and_then(|w| w.parse().ok());
        match flag.spec().kind {
            Kind::Real { default } => given.unwrap_or(default),
            _ => 0.0,
        }
    }
}
