//! Event categories and the runtime filter mask.

use core::fmt;

/// Coarse grouping of trace events, used for runtime filtering and as
/// the Chrome trace `cat` field. Each category renders as its own
/// named track in Perfetto.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Category {
    /// Packet lifecycle: injection and delivery.
    Packet = 0,
    /// Individual flit router traversals (very high volume).
    Hop = 1,
    /// dTDMA pillar bus activity: slot grants and contention.
    Pillar = 2,
    /// Two-step NUCA search: step issue, probes, results, retries.
    Search = 3,
    /// Cache-line migration: start, commit, abort.
    Migration = 4,
    /// Directory traffic: L1 invalidations.
    Coherence = 5,
    /// Data-bank port activity.
    Bank = 6,
    /// Off-chip memory requests and fills.
    Memory = 7,
    /// Annotations and exporter metadata.
    Meta = 8,
    /// Per-transaction latency spans (begin/end pairs for sampled
    /// transactions, with the phase-bucket breakdown on the end event).
    Txn = 9,
}

impl Category {
    /// Every category, in bit order.
    pub(crate) const ALL: [Category; 10] = [
        Category::Packet,
        Category::Hop,
        Category::Pillar,
        Category::Search,
        Category::Migration,
        Category::Coherence,
        Category::Bank,
        Category::Memory,
        Category::Meta,
        Category::Txn,
    ];

    /// Stable lowercase name (the trace `cat` field and filter token).
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Category::Packet => "packet",
            Category::Hop => "hop",
            Category::Pillar => "pillar",
            Category::Search => "search",
            Category::Migration => "migration",
            Category::Coherence => "coherence",
            Category::Bank => "bank",
            Category::Memory => "memory",
            Category::Meta => "meta",
            Category::Txn => "txn",
        }
    }

    /// Position in [`Category::ALL`] (also the Perfetto track id).
    #[inline]
    pub(crate) const fn index(self) -> usize {
        self as usize
    }

    fn from_name(s: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of enabled [`Category`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CategoryMask(u16);

impl nim_types::Codec for CategoryMask {
    fn put(&self, w: &mut nim_types::ByteWriter) {
        self.0.put(w);
    }

    /// Bits above the known categories are dropped, not rejected.
    fn get(r: &mut nim_types::ByteReader<'_>) -> Result<Self, nim_types::CodecError> {
        Ok(CategoryMask::from_bits(u16::get(r)?))
    }
}

impl CategoryMask {
    /// Every category enabled.
    pub const ALL: CategoryMask = CategoryMask((1 << 10) - 1);
    /// Nothing enabled.
    pub const NONE: CategoryMask = CategoryMask(0);

    /// The default trace mask: everything except per-flit [`Category::Hop`]
    /// events, whose volume would wrap the ring within a few thousand
    /// cycles of loaded simulation. Opt in with `--trace-filter hop,...`.
    pub fn default_trace() -> CategoryMask {
        CategoryMask::ALL.without(Category::Hop)
    }

    /// Whether `cat` is enabled.
    #[inline]
    pub(crate) const fn contains(self, cat: Category) -> bool {
        self.0 & (1 << cat.index()) != 0
    }

    /// This mask plus `cat`.
    #[must_use]
    pub const fn with(self, cat: Category) -> CategoryMask {
        CategoryMask(self.0 | (1 << cat.index()))
    }

    /// This mask minus `cat`.
    #[must_use]
    pub(crate) const fn without(self, cat: Category) -> CategoryMask {
        CategoryMask(self.0 & !(1 << cat.index()))
    }

    /// Rebuilds a mask from its raw bitset (bit `i` is
    /// `Category::ALL[i]`). Bits above the known categories are dropped.
    #[inline]
    pub const fn from_bits(bits: u16) -> CategoryMask {
        CategoryMask(bits & CategoryMask::ALL.0)
    }

    /// Parses a comma-separated category list (e.g.
    /// `"packet,pillar,search"`). `"all"` enables everything, `"none"`
    /// nothing; a list whose every token is prefixed `-` subtracts from
    /// `all` (e.g. `"-hop,-bank"`).
    ///
    /// # Errors
    ///
    /// Names the first token that is unknown or empty, or that mixes
    /// `-` into an additive list (or leaves it out of a subtractive one).
    pub fn parse(s: &str) -> Result<CategoryMask, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("all") {
            return Ok(CategoryMask::ALL);
        }
        if s.eq_ignore_ascii_case("none") {
            return Ok(CategoryMask::NONE);
        }
        let subtract = s.starts_with('-');
        let mut mask = if subtract {
            CategoryMask::ALL
        } else {
            CategoryMask::NONE
        };
        for raw in s.split(',') {
            let raw = raw.trim();
            let (minus, tok) = match raw.strip_prefix('-') {
                Some(tok) => (true, tok),
                None => (false, raw),
            };
            if tok.is_empty() {
                return Err(format!("empty trace category in '{s}'"));
            }
            if minus != subtract {
                return Err(format!(
                    "'{raw}' mixes adding and subtracting trace categories: \
                     prefix every category with '-' or none"
                ));
            }
            let cat = Category::from_name(&tok.to_ascii_lowercase())
                .ok_or_else(|| format!("unknown trace category '{tok}'"))?;
            mask = if subtract {
                mask.without(cat)
            } else {
                mask.with(cat)
            };
        }
        Ok(mask)
    }
}

impl Default for CategoryMask {
    fn default() -> Self {
        CategoryMask::default_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_lists_and_negation() {
        let m = CategoryMask::parse("packet, pillar,search").unwrap();
        assert!(m.contains(Category::Packet));
        assert!(m.contains(Category::Pillar));
        assert!(m.contains(Category::Search));
        assert!(!m.contains(Category::Migration));

        let all = CategoryMask::parse("all").unwrap();
        assert!(Category::ALL.into_iter().all(|c| all.contains(c)));

        let none = CategoryMask::parse("none").unwrap();
        assert!(Category::ALL.into_iter().all(|c| !none.contains(c)));

        let minus = CategoryMask::parse("-hop,-bank").unwrap();
        assert!(!minus.contains(Category::Hop));
        assert!(!minus.contains(Category::Bank));
        assert!(minus.contains(Category::Packet));

        assert!(CategoryMask::parse("bogus").is_err());
    }

    #[test]
    fn mixed_signs_and_empty_tokens_are_refused() {
        // `packet,-hop` once *added* hops; `-hop,bank` removed bank.
        for (list, names) in [("packet,-hop", "-hop"), ("-hop,bank", "bank")] {
            let err = CategoryMask::parse(list).unwrap_err();
            assert!(err.contains(&format!("'{names}'")), "{list}: {err}");
        }
        // A lone `-` once meant all, and an empty list none.
        for list in ["-", "", "packet,", "packet,,pillar", "-hop, -"] {
            let err = CategoryMask::parse(list).unwrap_err();
            assert!(err.contains("empty trace category"), "{list:?}: {err}");
        }
    }

    #[test]
    fn default_mask_drops_only_hops() {
        let m = CategoryMask::default_trace();
        assert!(!m.contains(Category::Hop));
        for c in Category::ALL {
            if c != Category::Hop {
                assert!(m.contains(c), "{c} should be on by default");
            }
        }
    }
}
