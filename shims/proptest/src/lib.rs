//! Offline shim for `proptest` (the subset this workspace uses).
//!
//! Provides the [`Strategy`] trait with `prop_map` / `prop_filter` /
//! `prop_recursive`, `any::<T>()`, [`Just`], integer-range and string-pattern
//! strategies, `collection::vec`, `option::of`, `sample::select`,
//! `sample::Index`, and the `proptest!` / `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!` macros.
//!
//! Differences from the real crate: no shrinking (failures report the raw
//! case), string patterns support only concatenations of literal characters
//! and `[class]{m,n}` character classes, and case counts default to 64
//! (override with `PROPTEST_CASES`). Generation is deterministic per test
//! name (override the seed with `PROPTEST_SEED`); either variable set to a
//! value that does not parse stops the run. A failing case, whether it
//! returns an error or panics, is named by its number.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::rc::Rc;
use std::str::FromStr;

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

/// SplitMix64-based deterministic test RNG.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Deterministic per-test seed derived from the test name (FNV-1a),
    /// optionally overridden by `PROPTEST_SEED`.
    ///
    /// # Panics
    /// When `PROPTEST_SEED` is set to anything but a `u64`.
    pub fn for_test(name: &str) -> Self {
        if let Some(seed) = env_setting("PROPTEST_SEED") {
            return TestRng::new(seed);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Number of cases per property (`PROPTEST_CASES`, default 64).
///
/// # Panics
/// When `PROPTEST_CASES` is set to anything but a positive integer.
pub fn case_count() -> usize {
    env_setting::<NonZeroUsize>("PROPTEST_CASES").map_or(64, NonZeroUsize::get)
}

/// Environment variable `name` parsed as a `T`, or `None` when it is unset.
fn env_setting<T: FromStr>(name: &str) -> Option<T> {
    let value = std::env::var_os(name)?;
    Some(parse_setting(name, &value.to_string_lossy()))
}

/// `value` of setting `name` parsed as a `T`. A value that does not parse
/// stops the run: a typo must not silently run the default cases.
fn parse_setting<T: FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| panic!("{name}={value:?} does not parse"))
}

/// The message a panic carried, for naming the case that raised it.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(a non-string panic payload)")
}

/// Sentinel error used by `prop_assume!` to skip a case.
pub const ASSUME_REJECTED: &str = "__proptest_assume_rejected__";

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A generator of random values of type `Self::Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Rejects values failing `pred`, retrying (bounded) until one passes.
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }

    /// Type-erased, cloneable strategy handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        let inner = self;
        BoxedStrategy(Rc::new(move |rng| inner.generate(rng)))
    }

    /// Builds recursive values: each level is a 50/50 union of the leaf
    /// strategy and `recurse` applied to the previous level, `depth` levels
    /// deep. (`desired_size` / `expected_branch_size` are accepted for
    /// API compatibility; sizing is controlled by the inner collections.)
    fn prop_recursive<F, S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
        S: Strategy<Value = Self::Value> + 'static,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            let branch = recurse(current).boxed();
            current = Union::new(vec![leaf.clone(), branch]).boxed();
        }
        current
    }
}

/// Cloneable type-erased strategy.
pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 candidates in a row: {}",
            self.reason
        );
    }
}

/// Uniform choice between strategies of a common value type.
pub struct Union<V>(Vec<BoxedStrategy<V>>);

impl<V> Union<V> {
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "empty prop_oneof!");
        Union(options)
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.0.len());
        self.0[idx].generate(rng)
    }
}

// ---------------------------------------------------------------------------
// any::<T>() / Arbitrary
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized + 'static {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_bool()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Mostly random bit patterns (spanning the full representable range,
        // including NaN/±inf), with special values mixed in so edge cases
        // like -0.0 appear often enough to matter.
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        if rng.below(8) == 0 {
            SPECIAL[rng.below(SPECIAL.len())]
        } else {
            f64::from_bits(rng.next_u64())
        }
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        f32::from_bits(rng.next_u64() as u32)
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Mostly ASCII, occasionally any scalar value.
        if rng.below(4) == 0 {
            loop {
                if let Some(c) = char::from_u32(rng.next_u64() as u32 % 0x11_0000) {
                    return c;
                }
            }
        } else {
            (b' ' + rng.below(95) as u8) as char
        }
    }
}

pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// ---------------------------------------------------------------------------
// Built-in strategies: integer ranges and string patterns
// ---------------------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// `&str` regex-like patterns: concatenations of literal characters and
/// `[class]` atoms, each optionally repeated `{n}` or `{m,n}`.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

struct PatternAtom {
    choices: Vec<char>,
    min: usize,
    max: usize,
}

fn parse_pattern(pattern: &str) -> Vec<PatternAtom> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut atoms = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let choices = if chars[i] == '[' {
            let mut set = Vec::new();
            i += 1;
            while i < chars.len() && chars[i] != ']' {
                if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                    let (lo, hi) = (chars[i], chars[i + 2]);
                    assert!(lo <= hi, "bad range in pattern {pattern:?}");
                    for c in lo..=hi {
                        set.push(c);
                    }
                    i += 3;
                } else {
                    set.push(chars[i]);
                    i += 1;
                }
            }
            assert!(i < chars.len(), "unterminated class in pattern {pattern:?}");
            i += 1; // closing ']'
            set
        } else if chars[i] == '\\' && i + 1 < chars.len() {
            i += 2;
            vec![chars[i - 1]]
        } else {
            i += 1;
            vec![chars[i - 1]]
        };

        let (min, max) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unterminated repetition in pattern {pattern:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse().expect("bad repetition min"),
                    n.trim().parse().expect("bad repetition max"),
                ),
                None => {
                    let n: usize = body.trim().parse().expect("bad repetition count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        assert!(!choices.is_empty(), "empty class in pattern {pattern:?}");
        atoms.push(PatternAtom { choices, min, max });
    }
    atoms
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let mut out = String::new();
    for atom in parse_pattern(pattern) {
        let count = atom.min + rng.below(atom.max - atom.min + 1);
        for _ in 0..count {
            out.push(atom.choices[rng.below(atom.choices.len())]);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// collection / option / sample modules
// ---------------------------------------------------------------------------

pub mod collection {
    use super::*;

    /// Inclusive element-count bounds for collection strategies.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        pub min: usize,
        pub max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.min + rng.below(self.size.max - self.size.min + 1);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod option {
    use super::*;

    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_bool() {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }

    /// `None` or a value from `inner`, 50/50.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

pub mod sample {
    use super::*;

    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len())].clone()
        }
    }

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "sample::select on empty list");
        Select(options)
    }

    /// An index into a collection whose length is only known at use time;
    /// `index(len)` maps it uniformly into `0..len`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Index(pub(crate) usize);

    impl Index {
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            self.0 % len
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64() as usize)
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )+) => {$(
        $(#[$meta])*
        fn $name() {
            let cases = $crate::case_count();
            let mut rng = $crate::TestRng::for_test(stringify!($name));
            let mut ran = 0usize;
            for case in 0..cases {
                $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)+
                let outcome: ::std::thread::Result<
                    ::std::result::Result<(), ::std::string::String>,
                > = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    $body
                    ::std::result::Result::Ok(())
                }));
                match outcome {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => ran += 1,
                    ::std::result::Result::Ok(::std::result::Result::Err(e))
                        if e == $crate::ASSUME_REJECTED => {}
                    ::std::result::Result::Ok(::std::result::Result::Err(e)) => {
                        panic!("property {} failed on case {case}: {e}", stringify!($name));
                    }
                    ::std::result::Result::Err(payload) => {
                        panic!(
                            "property {} panicked on case {case}: {}",
                            stringify!($name),
                            $crate::panic_message(&*payload)
                        );
                    }
                }
            }
            assert!(
                ran > 0,
                "property {}: every case was rejected by prop_assume!",
                stringify!($name)
            );
        }
    )+};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}; {}",
                stringify!($cond),
                ::std::format!($($fmt)+)
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                        stringify!($a),
                        stringify!($b),
                        left,
                        right
                    ));
                }
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n {}",
                        stringify!($a),
                        stringify!($b),
                        left,
                        right,
                        ::std::format!($($fmt)+)
                    ));
                }
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(::std::string::String::from(
                $crate::ASSUME_REJECTED,
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// The conventional import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, Strategy,
    };

    /// Namespace alias mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::{collection, option, sample};
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn pattern_strategy_respects_shape() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..200 {
            let s = crate::generate_from_pattern("[A-Z][a-z0-9 ]{2,5}x", &mut rng);
            let chars: Vec<char> = s.chars().collect();
            assert!((4..=7).contains(&chars.len()), "{s:?}");
            assert!(chars[0].is_ascii_uppercase());
            assert_eq!(*chars.last().unwrap(), 'x');
            for &c in &chars[1..chars.len() - 1] {
                assert!(
                    c.is_ascii_lowercase() || c.is_ascii_digit() || c == ' ',
                    "{s:?}"
                );
            }
        }
    }

    #[test]
    fn range_and_vec_strategies_respect_bounds() {
        let mut rng = crate::TestRng::new(2);
        for _ in 0..200 {
            let n = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&n));
            let v = crate::collection::vec(0i64..5, 1..4).generate(&mut rng);
            assert!((1..=3).contains(&v.len()));
            assert!(v.iter().all(|x| (0..5).contains(x)));
        }
    }

    #[test]
    fn union_and_recursive_generate_both_arms() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(i64),
            Node(Vec<Tree>),
        }
        let strategy = any::<i64>()
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 1..4).prop_map(Tree::Node)
            });
        let mut rng = crate::TestRng::new(3);
        let mut saw_leaf = false;
        let mut saw_node = false;
        for _ in 0..100 {
            match strategy.generate(&mut rng) {
                Tree::Leaf(_) => saw_leaf = true,
                Tree::Node(_) => saw_node = true,
            }
        }
        assert!(saw_leaf && saw_node);
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::TestRng::for_test("some_property");
        let mut b = crate::TestRng::for_test("some_property");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #[test]
        fn shim_macro_works(x in 0usize..10, s in "[ab]{1,3}") {
            prop_assume!(x != 9);
            prop_assert!(x < 9);
            prop_assert_eq!(s.len(), s.chars().count());
        }

        fn body_panics(x in 0usize..10) {
            assert!(x > 10, "boom");
        }
    }

    #[test]
    #[should_panic(expected = "property body_panics panicked on case 0: boom")]
    fn a_panicking_body_names_its_case() {
        body_panics();
    }

    #[test]
    fn settings_parse_as_their_type() {
        assert_eq!(crate::parse_setting::<u64>("PROPTEST_SEED", "7"), 7);
        let cases: std::num::NonZeroUsize = crate::parse_setting("PROPTEST_CASES", "512");
        assert_eq!(cases.get(), 512);
    }

    #[test]
    #[should_panic(expected = "PROPTEST_CASES=\"ten\" does not parse")]
    fn a_case_count_that_does_not_parse_stops_the_run() {
        crate::parse_setting::<std::num::NonZeroUsize>("PROPTEST_CASES", "ten");
    }

    #[test]
    #[should_panic(expected = "PROPTEST_CASES=\"0\" does not parse")]
    fn a_case_count_of_zero_stops_the_run() {
        crate::parse_setting::<std::num::NonZeroUsize>("PROPTEST_CASES", "0");
    }

    #[test]
    #[should_panic(expected = "PROPTEST_SEED=\"-1\" does not parse")]
    fn a_seed_that_does_not_parse_stops_the_run() {
        crate::parse_setting::<u64>("PROPTEST_SEED", "-1");
    }
}
