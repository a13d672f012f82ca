//! String generation from a small regex subset.
//!
//! Real proptest accepts full regexes as string strategies. This shim
//! supports the subset the workspace's tests use: sequences of literal
//! characters and character classes (`[a-z0-9_]`, with `\n`-style escapes
//! and `-` ranges), each optionally followed by a `{n}` or `{m,n}`
//! quantifier. Anything else panics loudly at generation time.

use crate::rng::Rng;

/// Generates one string matching `pattern`.
pub(crate) fn generate_pattern(pattern: &str, rng: &mut Rng) -> String {
    let atoms = parse(pattern);
    let mut out = String::new();
    for atom in &atoms {
        let n = atom.min + rng.below((atom.max - atom.min + 1) as u64) as usize;
        for _ in 0..n {
            let i = rng.below(atom.chars.len() as u64) as usize;
            out.push(atom.chars[i]);
        }
    }
    out
}

struct Atom {
    chars: Vec<char>,
    min: usize,
    max: usize,
}

fn parse(pattern: &str) -> Vec<Atom> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut atoms = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let set = match chars[i] {
            '[' => {
                let (set, next) = parse_class(&chars, i + 1, pattern);
                i = next;
                set
            }
            '\\' => {
                i += 2;
                vec![unescape(chars[i - 1])]
            }
            c if "(){}*+?|^$.".contains(c) => {
                panic!("string pattern `{pattern}`: unsupported regex construct `{c}`")
            }
            c => {
                i += 1;
                vec![c]
            }
        };
        let (min, max) = parse_quantifier(&chars, &mut i, pattern);
        assert!(!set.is_empty(), "string pattern `{pattern}`: empty character class");
        atoms.push(Atom { chars: set, min, max });
    }
    atoms
}

/// Parses `[...]` starting just after the `[`; returns the set and the index
/// one past the closing `]`.
fn parse_class(chars: &[char], mut i: usize, pattern: &str) -> (Vec<char>, usize) {
    let mut set = Vec::new();
    while i < chars.len() && chars[i] != ']' {
        let lo = if chars[i] == '\\' {
            i += 2;
            unescape(chars[i - 1])
        } else {
            i += 1;
            chars[i - 1]
        };
        // A `-` between two members is a range; trailing `-` is a literal.
        if i + 1 < chars.len() && chars[i] == '-' && chars[i + 1] != ']' {
            let hi = if chars[i + 1] == '\\' {
                i += 3;
                unescape(chars[i - 1])
            } else {
                i += 2;
                chars[i - 1]
            };
            assert!(lo <= hi, "string pattern `{pattern}`: inverted range");
            for c in lo..=hi {
                set.push(c);
            }
        } else {
            set.push(lo);
        }
    }
    assert!(i < chars.len(), "string pattern `{pattern}`: unterminated class");
    (set, i + 1)
}

/// Parses `{n}` / `{m,n}` at position `*i` (if present); defaults to one.
fn parse_quantifier(chars: &[char], i: &mut usize, pattern: &str) -> (usize, usize) {
    if *i >= chars.len() || chars[*i] != '{' {
        return (1, 1);
    }
    let close = chars[*i..]
        .iter()
        .position(|&c| c == '}')
        .unwrap_or_else(|| panic!("string pattern `{pattern}`: unterminated quantifier"));
    let body: String = chars[*i + 1..*i + close].iter().collect();
    *i += close + 1;
    let parse_num = |s: &str| {
        s.trim().parse::<usize>().unwrap_or_else(|_| panic!("bad quantifier in `{pattern}`"))
    };
    match body.split_once(',') {
        Some((lo, hi)) => (parse_num(lo), parse_num(hi)),
        None => {
            let n = parse_num(&body);
            (n, n)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::from_name("string-tests")
    }

    #[test]
    fn class_with_ranges_and_quantifier() {
        let mut r = rng();
        for _ in 0..200 {
            let s = generate_pattern("[a-zA-Z0-9 _-]{0,64}", &mut r);
            assert!(s.len() <= 64);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == ' ' || c == '_' || c == '-'));
        }
    }

    #[test]
    fn identifier_shape() {
        let mut r = rng();
        for _ in 0..200 {
            let s = generate_pattern("[a-z][a-z0-9_]{0,8}", &mut r);
            assert!(!s.is_empty() && s.len() <= 9);
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
        }
    }

    #[test]
    fn printable_with_escape_range() {
        let mut r = rng();
        for _ in 0..200 {
            let s = generate_pattern("[ -~\n]{0,200}", &mut r);
            assert!(s.len() <= 200);
            assert!(s.chars().all(|c| (' '..='~').contains(&c) || c == '\n'));
        }
    }

    #[test]
    fn literals_pass_through() {
        let mut r = rng();
        assert_eq!(generate_pattern("abc", &mut r), "abc");
        assert_eq!(generate_pattern("a{3}", &mut r), "aaa");
    }
}
