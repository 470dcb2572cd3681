//! Regex-like string generation for `&str` strategies.
//!
//! Supports the pattern subset this workspace's tests use: one character
//! class — `[...]` with literal characters, escapes, and `a-z` ranges —
//! or `\PC` (any non-control character), followed by a `{m}` or `{m,n}`
//! repetition count. Anything else panics with the offending pattern.

use crate::rng::TestRng;

enum Class {
    /// Inclusive character ranges; single characters are `(c, c)`.
    Set(Vec<(char, char)>),
    /// Any `char` that is not a control character (`\PC`).
    NotControl,
}

impl Class {
    fn sample(&self, rng: &mut TestRng) -> char {
        match self {
            Class::Set(ranges) => {
                let total: u32 = ranges
                    .iter()
                    .map(|&(lo, hi)| hi as u32 - lo as u32 + 1)
                    .sum();
                let mut idx = rng.in_range_u128(0, u128::from(total) - 1) as u32;
                for &(lo, hi) in ranges {
                    let span = hi as u32 - lo as u32 + 1;
                    if idx < span {
                        return char::from_u32(lo as u32 + idx)
                            .expect("class ranges contain valid chars");
                    }
                    idx -= span;
                }
                unreachable!("index within total weight")
            }
            Class::NotControl => loop {
                // Mostly printable ASCII, sometimes wider BMP code points,
                // so JSON-ish escapers see multibyte input too.
                let candidate = if rng.chance(0.85) {
                    rng.in_range_u128(0x20, 0x7e) as u32
                } else {
                    rng.in_range_u128(0xa0, 0xffff) as u32
                };
                if let Some(c) = char::from_u32(candidate) {
                    if !c.is_control() {
                        return c;
                    }
                }
            },
        }
    }
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        other => other,
    }
}

fn parse(pattern: &str) -> Option<(Class, usize, usize)> {
    let mut chars = pattern.chars().peekable();
    let class = match chars.next()? {
        '[' => {
            let mut ranges = Vec::new();
            loop {
                let c = chars.next()?;
                let lo = match c {
                    ']' => break,
                    '\\' => unescape(chars.next()?),
                    other => other,
                };
                // `x-y` is a range unless `-` is the last class member.
                if chars.peek() == Some(&'-') {
                    let mut ahead = chars.clone();
                    ahead.next(); // the '-'
                    match ahead.peek() {
                        Some(&']') | None => ranges.push((lo, lo)),
                        Some(_) => {
                            chars.next(); // consume '-'
                            let hi = match chars.next()? {
                                '\\' => unescape(chars.next()?),
                                other => other,
                            };
                            ranges.push((lo, hi));
                        }
                    }
                } else {
                    ranges.push((lo, lo));
                }
            }
            if ranges.is_empty() {
                return None;
            }
            Class::Set(ranges)
        }
        '\\' => {
            if chars.next()? != 'P' || chars.next()? != 'C' {
                return None;
            }
            Class::NotControl
        }
        _ => return None,
    };
    // Repetition: {m} or {m,n}.
    if chars.next()? != '{' {
        return None;
    }
    let rest: String = chars.collect();
    let body = rest.strip_suffix('}')?;
    let (min, max) = match body.split_once(',') {
        Some((m, n)) => (m.trim().parse().ok()?, n.trim().parse().ok()?),
        None => {
            let m: usize = body.trim().parse().ok()?;
            (m, m)
        }
    };
    if min > max {
        return None;
    }
    Some((class, min, max))
}

/// Generates one string matching `pattern`.
pub(crate) fn gen_string(pattern: &str, rng: &mut TestRng) -> String {
    let (class, min, max) = parse(pattern)
        .unwrap_or_else(|| panic!("unsupported string strategy pattern: {pattern:?}"));
    let len = min + rng.below(max - min + 1);
    (0..len).map(|_| class.sample(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_class_and_lengths() {
        let mut rng = TestRng::new(1);
        for _ in 0..200 {
            let s = gen_string("[a-z]{1,8}", &mut rng);
            assert!((1..=8).contains(&s.chars().count()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn escapes_and_multi_range_class() {
        let mut rng = TestRng::new(2);
        let pattern = "[a-zA-Z0-9 _\\-\\.\"\\\\\n\t]{0,24}";
        let allowed = |c: char| {
            c.is_ascii_alphanumeric()
                || matches!(c, ' ' | '_' | '-' | '.' | '"' | '\\' | '\n' | '\t')
        };
        for _ in 0..200 {
            let s = gen_string(pattern, &mut rng);
            assert!(s.chars().count() <= 24);
            assert!(s.chars().all(allowed), "bad char in {s:?}");
        }
    }

    #[test]
    fn not_control_class() {
        let mut rng = TestRng::new(3);
        for _ in 0..200 {
            let s = gen_string("\\PC{0,128}", &mut rng);
            assert!(s.chars().count() <= 128);
            assert!(s.chars().all(|c| !c.is_control()));
        }
    }

    #[test]
    fn exact_repetition() {
        let mut rng = TestRng::new(4);
        let s = gen_string("[0-9]{5}", &mut rng);
        assert_eq!(s.chars().count(), 5);
    }

    #[test]
    #[should_panic(expected = "unsupported string strategy pattern")]
    fn unsupported_pattern_panics() {
        let mut rng = TestRng::new(5);
        gen_string("(a|b)+", &mut rng);
    }
}
