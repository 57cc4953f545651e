//! The paper's taxonomy of parallel file access patterns (Fig. 2) and
//! synchronization styles (§IV-B).
//!
//! Sequential access splits along three axes: **local** (each process reads
//! consecutive blocks itself) vs **global** (the merged reference string of
//! all processes is sequential), whether sequential *portions* have
//! **regular** or **random** length/spacing, and whether the per-process
//! block sets **overlap** or are **disjoint**. The six patterns embedded in
//! the paper's synthetic workload are the values of [`AccessPattern`].

use std::fmt;

/// The six representative parallel file access patterns of §IV-B.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// `lfp` — local sequential portions of regular length and spacing, at
    /// different places in the file for each process. The prefetcher may
    /// predict across portion boundaries.
    LocalFixedPortions,
    /// `lrp` — local sequential portions of random length and spacing;
    /// portions may overlap between processes by coincidence. Prefetching
    /// past the end of the current portion is not permitted.
    LocalRandomPortions,
    /// `lw` — every process reads the entire file from beginning to end:
    /// a single fully-overlapped portion with strong interprocess temporal
    /// locality.
    LocalWholeFile,
    /// `gfp` — processes cooperate so the merged reference string forms
    /// sequential portions of regular length and spacing.
    GlobalFixedPortions,
    /// `grp` — globally sequential portions of random length and spacing.
    GlobalRandomPortions,
    /// `gw` — processes cooperate to read the whole file exactly once;
    /// globally sequential, locally no discernible pattern.
    GlobalWholeFile,
}

impl AccessPattern {
    /// All six patterns, in the paper's order.
    pub const ALL: [AccessPattern; 6] = [
        AccessPattern::LocalFixedPortions,
        AccessPattern::LocalRandomPortions,
        AccessPattern::LocalWholeFile,
        AccessPattern::GlobalFixedPortions,
        AccessPattern::GlobalRandomPortions,
        AccessPattern::GlobalWholeFile,
    ];

    /// The paper's abbreviation (`lfp`, `lrp`, `lw`, `gfp`, `grp`, `gw`).
    pub fn abbrev(self) -> &'static str {
        match self {
            AccessPattern::LocalFixedPortions => "lfp",
            AccessPattern::LocalRandomPortions => "lrp",
            AccessPattern::LocalWholeFile => "lw",
            AccessPattern::GlobalFixedPortions => "gfp",
            AccessPattern::GlobalRandomPortions => "grp",
            AccessPattern::GlobalWholeFile => "gw",
        }
    }

    /// Parse a paper abbreviation.
    pub fn from_abbrev(s: &str) -> Option<AccessPattern> {
        Self::ALL.iter().copied().find(|p| p.abbrev() == s)
    }

    /// True for the three patterns whose sequentiality is per-process.
    pub fn is_local(self) -> bool {
        matches!(
            self,
            AccessPattern::LocalFixedPortions
                | AccessPattern::LocalRandomPortions
                | AccessPattern::LocalWholeFile
        )
    }

    /// True for the three patterns whose sequentiality is only visible in
    /// the merged reference string.
    pub fn is_global(self) -> bool {
        !self.is_local()
    }

    /// True when portion length and spacing are regular, so the prefetcher
    /// may predict past a portion boundary (§IV-B: allowed for `lfp`/`gfp`,
    /// forbidden for `lrp`/`grp`; whole-file patterns have one portion).
    pub fn may_prefetch_across_portions(self) -> bool {
        !matches!(
            self,
            AccessPattern::LocalRandomPortions | AccessPattern::GlobalRandomPortions
        )
    }
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The four synchronization styles of §IV-B: barriers tied to the amount of
/// data processed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyncStyle {
    /// No synchronization at all.
    None,
    /// All processes synchronize after each has read this many blocks.
    /// The paper uses 10.
    BlocksPerProc(u32),
    /// All processes synchronize each time the computation as a whole has
    /// read this many blocks. The paper uses 200.
    BlocksTotal(u32),
    /// All processes synchronize after each sequential portion (local or
    /// global). Not used with `lw` in the paper (footnote 3).
    EachPortion,
}

impl SyncStyle {
    /// The paper's four styles with its parameter choices.
    pub const PAPER: [SyncStyle; 4] = [
        SyncStyle::BlocksPerProc(10),
        SyncStyle::BlocksTotal(200),
        SyncStyle::None,
        SyncStyle::EachPortion,
    ];

    /// Short label for tables.
    pub fn label(self) -> String {
        match self {
            SyncStyle::None => "none".to_string(),
            SyncStyle::BlocksPerProc(n) => format!("per-proc:{n}"),
            SyncStyle::BlocksTotal(n) => format!("total:{n}"),
            SyncStyle::EachPortion => "portion".to_string(),
        }
    }

    /// The paper never pairs portion synchronization with `lw` (each
    /// process has one giant portion, so it cannot be compared fairly).
    pub fn valid_for(self, pattern: AccessPattern) -> bool {
        !(self == SyncStyle::EachPortion && pattern == AccessPattern::LocalWholeFile)
    }
}

impl fmt::Display for SyncStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbrevs_round_trip() {
        for p in AccessPattern::ALL {
            assert_eq!(AccessPattern::from_abbrev(p.abbrev()), Some(p));
        }
        assert_eq!(AccessPattern::from_abbrev("zzz"), None);
    }

    #[test]
    fn locality_split() {
        let locals: Vec<_> = AccessPattern::ALL.iter().filter(|p| p.is_local()).collect();
        assert_eq!(locals.len(), 3);
        for p in AccessPattern::ALL {
            assert_ne!(p.is_local(), p.is_global());
        }
    }

    #[test]
    fn portion_rules_match_paper() {
        use AccessPattern::*;
        assert!(LocalFixedPortions.may_prefetch_across_portions());
        assert!(GlobalFixedPortions.may_prefetch_across_portions());
        assert!(!LocalRandomPortions.may_prefetch_across_portions());
        assert!(!GlobalRandomPortions.may_prefetch_across_portions());
        assert!(LocalWholeFile.may_prefetch_across_portions());
        assert!(GlobalWholeFile.may_prefetch_across_portions());
    }

    #[test]
    fn lw_excludes_portion_sync() {
        assert!(!SyncStyle::EachPortion.valid_for(AccessPattern::LocalWholeFile));
        assert!(SyncStyle::EachPortion.valid_for(AccessPattern::GlobalWholeFile));
        assert!(SyncStyle::None.valid_for(AccessPattern::LocalWholeFile));
    }

    #[test]
    fn labels() {
        assert_eq!(SyncStyle::BlocksPerProc(10).label(), "per-proc:10");
        assert_eq!(SyncStyle::BlocksTotal(200).label(), "total:200");
        assert_eq!(format!("{}", AccessPattern::GlobalWholeFile), "gw");
    }
}
