//! Declaring each metric fact once: the [`facts!`](macro@crate::facts) table.
//!
//! A table row is a fact: its `///` help, its handle field, its kind and its
//! family name. From those rows the macro writes the handle struct, its
//! registration and, when asked, a plain-value snapshot, so adding a fact is
//! adding a row.

use crate::registry::Kind;
use crate::{Counter, Gauge, Histogram, Registry};

/// A cell kind a [`facts!`](macro@crate::facts) row can declare.
pub trait Fact {
    /// The family kind this cell renders as.
    const KIND: Kind;
    /// The plain value a snapshot copies out of the cell.
    type Value: Copy + Into<i128>;
    /// Registers (or finds) the cell on `registry`.
    fn register(registry: &Registry, name: &str, help: &str, labels: &[(&str, &str)]) -> Self;
    /// The cell's current value.
    fn value(&self) -> Self::Value;
}

impl Fact for Counter {
    const KIND: Kind = Kind::Counter;
    type Value = u64;
    fn register(registry: &Registry, name: &str, help: &str, labels: &[(&str, &str)]) -> Self {
        registry.counter_with(name, help, labels)
    }
    fn value(&self) -> u64 {
        self.get()
    }
}

impl Fact for Gauge {
    const KIND: Kind = Kind::Gauge;
    type Value = i64;
    fn register(registry: &Registry, name: &str, help: &str, labels: &[(&str, &str)]) -> Self {
        registry.gauge_with(name, help, labels)
    }
    fn value(&self) -> i64 {
        self.get()
    }
}

/// A histogram's snapshot value is its observation count: the family's
/// `_count` sample.
impl Fact for Histogram {
    const KIND: Kind = Kind::Histogram;
    type Value = u64;
    fn register(registry: &Registry, name: &str, help: &str, labels: &[(&str, &str)]) -> Self {
        registry.latency_histogram_with(name, help, labels)
    }
    fn value(&self) -> u64 {
        self.count()
    }
}

/// Declares a table of metric facts.
///
/// A row is `/// help` lines, then `vis field: Counter | Gauge | Histogram =
/// "family",`. The help is the field's doc and the family's `# HELP`; the
/// visibility (private when left out) is the handle's, so a cell with one
/// writer stays private to that writer's module. A row `..Other,` declares
/// `Other`'s families in that place (see [`Registry::declare`]); `Other`'s
/// owner registers their series, typically under labels of its own.
///
/// `struct Name { rows }` writes `Name`, a handle per row, with
/// `Name::register(&Registry, labels)` (idempotent, like every registry
/// registration) and `Name::declare(&Registry)`. `struct Name => struct
/// NameSnapshot { rows }` also writes `Name::snapshot` into `NameSnapshot`,
/// each row's [`Fact::Value`] (a row `field: Gauge as u64` copies a value
/// `u64` cannot hold as 0), whose `facts()` lists `(family, value)` pairs.
/// ```
/// use avoc_obs::{facts, Registry};
///
/// facts! {
///     /// A toy's cells.
///     pub struct Toy => pub struct ToySnapshot {
///         /// Things seen.
///         pub seen: Counter = "toy_seen_total",
///         /// Things in hand.
///         pub held: Gauge = "toy_held",
///         /// Things owed, never below 0 in a snapshot.
///         pub owed: Gauge as u64 = "toy_owed",
///     }
/// }
///
/// let registry = Registry::new();
/// let toy = Toy::register(&registry, &[("shard", "0")]);
/// toy.seen.add(2);
/// toy.held.set(-1);
/// toy.owed.set(-1);
/// assert_eq!(toy.snapshot(), ToySnapshot { seen: 2, held: -1, owed: 0 });
/// assert_eq!(
///     toy.snapshot().facts(),
///     [("toy_seen_total", 2), ("toy_held", -1), ("toy_owed", 0)]
/// );
/// assert!(registry.render_prometheus().contains("toy_held{shard=\"0\"} -1"));
/// ```
///
/// A row without a visibility is private to the declaring module:
///
/// ```compile_fail
/// mod shard {
///     avoc_obs::facts! {
///         pub struct Cells {
///             /// Written only in this module.
///             mine: Counter = "cells_mine_total",
///         }
///     }
/// }
/// let cells = shard::Cells::register(&avoc_obs::Registry::new(), &[]);
/// cells.mine.inc();
/// ```
#[macro_export]
macro_rules! facts {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident => $svis:vis struct $snap:ident { $($body:tt)* }
    ) => {
        $crate::facts!(@munch [$(#[$meta])* $vis $name [$svis $snap]] [] [] $($body)*);
    };
    ($(#[$meta:meta])* $vis:vis struct $name:ident { $($body:tt)* }) => {
        $crate::facts!(@munch [$(#[$meta])* $vis $name []] [] [] $($body)*);
    };
    (@munch $head:tt [$($rows:tt)*] [$($steps:tt)*] .. $splice:ident, $($rest:tt)*) => {
        $crate::facts!(@munch $head [$($rows)*] [$($steps)* (splice $splice)] $($rest)*);
    };
    (
        @munch $head:tt [$($rows:tt)*] [$($steps:tt)*]
        $(#[doc = $help:literal])+
        $fvis:vis $field:ident : $kind:ident as $value:ty = $family:literal, $($rest:tt)*
    ) => {
        $crate::facts!(
            @munch $head
            [$($rows)* ([$($help)+] $fvis $field $kind ($value) $family)]
            [$($steps)* (row [$($help)+] $field $kind $family)]
            $($rest)*
        );
    };
    (
        @munch $head:tt [$($rows:tt)*] [$($steps:tt)*]
        $(#[doc = $help:literal])+
        $fvis:vis $field:ident : $kind:ident = $family:literal, $($rest:tt)*
    ) => {
        $crate::facts!(
            @munch $head [$($rows)*] [$($steps)*]
            $(#[doc = $help])+
            $fvis $field: $kind as <$crate::$kind as $crate::Fact>::Value = $family,
            $($rest)*
        );
    };
    (
        @munch [$(#[$meta:meta])* $vis:vis $name:ident $snapshot:tt]
        [$( ([$($help:literal)+] $fvis:vis $field:ident $kind:ident $value:tt $family:literal) )*]
        [$($steps:tt)*]
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        $vis struct $name {
            $( $(#[doc = $help])+ $fvis $field: $crate::$kind, )*
        }

        impl $name {
            /// Declares every family in place, spliced ones included, then
            /// registers (or finds) each row's cell under `labels`.
            pub fn register(registry: &$crate::Registry, labels: &[(&str, &str)]) -> Self {
                Self::declare(registry);
                $name {
                    $(
                        $field: <$crate::$kind as $crate::Fact>::register(
                            registry,
                            $family,
                            concat!($($help),+).trim(),
                            labels,
                        ),
                    )*
                }
            }

            /// Declares every family of this table, spliced ones included,
            /// without registering a series.
            pub fn declare(registry: &$crate::Registry) {
                $( $crate::facts! { @declare registry $steps } )*
            }
        }

        $crate::facts! { @snapshot $snapshot $name [$( ([$($help)+] $field $kind $value $family) )*] }
    };
    (@snapshot [] $name:ident $rows:tt) => {};
    (
        @snapshot [$svis:vis $snap:ident] $name:ident
        [$( ([$($help:literal)+] $field:ident $kind:ident ($value:ty) $family:literal) )*]
    ) => {
        impl $name {
            /// Every row's current value.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $(
                        $field: <$value as ::core::convert::TryFrom<_>>::try_from(
                            $crate::Fact::value(&self.$field),
                        )
                        .unwrap_or_default(),
                    )*
                }
            }
        }

        /// A point-in-time copy of each row's cell.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $svis struct $snap {
            $( $(#[doc = $help])+ pub $field: $value, )*
        }

        impl $snap {
            /// Each row's `(family, value)`, in registration order.
            pub fn facts(&self) -> Vec<(&'static str, i128)> {
                vec![$( ($family, self.$field.into()), )*]
            }
        }
    };
    (@declare $registry:ident (splice $splice:ident)) => {
        $splice::declare($registry);
    };
    (@declare $registry:ident (row [$($help:literal)+] $field:ident $kind:ident $family:literal)) => {
        $registry.declare(
            $family,
            concat!($($help),+).trim(),
            <$crate::$kind as $crate::Fact>::KIND,
        );
    };
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    crate::facts! {
        /// Spliced into `Outer` below.
        struct Inner => struct InnerSnapshot {
            /// Inner latency.
            latency: Histogram = "avoc_test_inner_ns",
        }
    }

    crate::facts! {
        /// A table with every kind and a splice between its rows.
        struct Outer => struct OuterSnapshot {
            /// Things seen,
            /// over two doc lines.
            seen: Counter = "avoc_test_seen_total",
            ..Inner,
            /// Things held.
            held: Gauge = "avoc_test_held",
            /// Things owed.
            owed: Gauge as u64 = "avoc_test_owed",
        }
    }

    #[test]
    fn declared_metrics_registered_twice_with_the_same_labels_share_cells() {
        let registry = Registry::new();
        let a = Outer::register(&registry, &[("shard", "0")]);
        let b = Outer::register(&registry, &[("shard", "0")]);
        let other = Outer::register(&registry, &[("shard", "1")]);
        a.seen.inc();
        b.seen.add(2);
        b.held.set(-4);
        a.owed.set(6);
        assert_eq!(a.snapshot(), b.snapshot());
        let OuterSnapshot { seen, held, owed } = a.snapshot();
        assert_eq!((seen, held, owed), (3, -4, 6));
        assert!(other.snapshot().facts().iter().all(|&(_, v)| v == 0));
        b.owed.set(-1);
        assert_eq!(a.snapshot().owed, 0, "a negative level copies as 0");
        let inner = Inner::register(&registry, &[]);
        inner.latency.record(7);
        inner.latency.record(9);
        assert_eq!(inner.snapshot().facts(), [("avoc_test_inner_ns", 2)]);
    }

    #[test]
    fn declared_metrics_families_match_the_type_lines_in_splice_order() {
        let registry = Registry::new();
        let outer = Outer::register(&registry, &[]).snapshot().facts();
        let text = registry.render_prometheus();
        assert!(text.contains("# HELP avoc_test_seen_total Things seen, over two doc lines.\n"));
        assert!(!text.contains("avoc_test_inner_ns_count"), "declared only");
        let inner = Inner::register(&registry, &[]).snapshot().facts();
        let kinds = [
            (outer[0].0, "counter"),
            (inner[0].0, "histogram"),
            (outer[1].0, "gauge"),
            (outer[2].0, "gauge"),
        ];
        let expected: Vec<String> = kinds
            .iter()
            .map(|(name, kind)| format!("# TYPE {name} {kind}"))
            .collect();
        let text = registry.render_prometheus();
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        assert_eq!(types, expected);
    }
}
