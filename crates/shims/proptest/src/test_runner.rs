//! Runner configuration and failure plumbing used by the `proptest!`
//! macro (mirror of `proptest::test_runner`).

use std::fmt;

/// How many cases each property runs.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }

    /// `config` with its case count replaced by `PROPTEST_CASES`, when
    /// that is set to a number.
    pub fn from_env(config: ProptestConfig) -> ProptestConfig {
        match std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            Some(cases) => ProptestConfig { cases },
            None => config,
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        // Upstream defaults to 256; this stand-in trades a little
        // coverage for workspace test time.
        ProptestConfig { cases: 64 }
    }
}

/// A failed property case (from `prop_assert*`).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// The result type `proptest!` bodies are wrapped into.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Deterministic per-test seed from the test's full path (FNV-1a).
pub fn seed_from_name(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
