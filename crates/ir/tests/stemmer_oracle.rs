//! The byte-level Porter stemmer against a char-level reference.
//!
//! `reference` below is the stemmer as first written: it holds the word
//! as a `Vec<char>` and collects every suffix it tests into a fresh
//! vector. The library stems over the word's ASCII bytes instead; these
//! tests check that `porter_stem` and `tokenize_and_stem` return exactly
//! what the reference returns, on Porter's vectors, on every base word
//! with every suffix of the rule tables, and on random mixed-script text.
#![allow(clippy::unwrap_used)]

use ir::text::{is_stop_word, porter_stem, tokenize_and_stem};
use proptest::prelude::*;

/// The char-level stemmer and pipeline the library's must agree with.
mod reference {
    use super::is_stop_word;

    /// Lowercase-then-filter tokenisation: every token is lowercased
    /// with full Unicode rules before the length and stop-word tests.
    pub fn tokenize_and_stem(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .map(str::to_lowercase)
            .filter(|lower| lower.len() > 1 && !is_stop_word(lower))
            .map(|lower| porter_stem(&lower))
            .collect()
    }

    pub fn porter_stem(word: &str) -> String {
        let w: Vec<char> = word.to_lowercase().chars().collect();
        if w.len() < 3 || !w.iter().all(|c| c.is_ascii_alphabetic()) {
            return w.into_iter().collect();
        }
        let mut s = Stem { w };
        s.step1a();
        s.step1b();
        s.step1c();
        s.step2();
        s.step3();
        s.step4();
        s.step5a();
        s.step5b();
        s.w.into_iter().collect()
    }

    struct Stem {
        w: Vec<char>,
    }

    impl Stem {
        fn is_cons(&self, i: usize) -> bool {
            match self.w[i] {
                'a' | 'e' | 'i' | 'o' | 'u' => false,
                'y' => i == 0 || !self.is_cons(i - 1),
                _ => true,
            }
        }

        fn measure(&self, len: usize) -> usize {
            let mut m = 0;
            let mut i = 0;
            while i < len && self.is_cons(i) {
                i += 1;
            }
            loop {
                while i < len && !self.is_cons(i) {
                    i += 1;
                }
                if i >= len {
                    return m;
                }
                while i < len && self.is_cons(i) {
                    i += 1;
                }
                m += 1;
            }
        }

        fn has_vowel(&self, len: usize) -> bool {
            (0..len).any(|i| !self.is_cons(i))
        }

        fn double_cons(&self) -> bool {
            let n = self.w.len();
            n >= 2 && self.w[n - 1] == self.w[n - 2] && self.is_cons(n - 1)
        }

        fn ends_cvc(&self, len: usize) -> bool {
            if len < 3 {
                return false;
            }
            let c = self.w[len - 1];
            self.is_cons(len - 3)
                && !self.is_cons(len - 2)
                && self.is_cons(len - 1)
                && !matches!(c, 'w' | 'x' | 'y')
        }

        fn ends_with(&self, suffix: &str) -> bool {
            let s: Vec<char> = suffix.chars().collect();
            self.w.len() >= s.len() && self.w[self.w.len() - s.len()..] == s[..]
        }

        fn stem_len(&self, suffix: &str) -> usize {
            self.w.len() - suffix.chars().count()
        }

        fn replace(&mut self, suffix: &str, with: &str) {
            let keep = self.stem_len(suffix);
            self.w.truncate(keep);
            self.w.extend(with.chars());
        }

        fn rule(&mut self, suffix: &str, with: &str, min_m: usize) -> bool {
            if !self.ends_with(suffix) {
                return false;
            }
            let keep = self.stem_len(suffix);
            if self.measure(keep) > min_m {
                self.replace(suffix, with);
            }
            true
        }

        fn step1a(&mut self) {
            if self.ends_with("sses") {
                self.replace("sses", "ss");
            } else if self.ends_with("ies") {
                self.replace("ies", "i");
            } else if self.ends_with("ss") {
            } else if self.ends_with("s") {
                self.replace("s", "");
            }
        }

        fn step1b(&mut self) {
            if self.ends_with("eed") {
                if self.measure(self.stem_len("eed")) > 0 {
                    self.replace("eed", "ee");
                }
                return;
            }
            let matched = if self.ends_with("ed") && self.has_vowel(self.stem_len("ed")) {
                self.replace("ed", "");
                true
            } else if self.ends_with("ing") && self.has_vowel(self.stem_len("ing")) {
                self.replace("ing", "");
                true
            } else {
                false
            };
            if matched {
                if self.ends_with("at") || self.ends_with("bl") || self.ends_with("iz") {
                    self.w.push('e');
                } else if self.double_cons() && !matches!(self.w[self.w.len() - 1], 'l' | 's' | 'z')
                {
                    self.w.pop();
                } else if self.measure(self.w.len()) == 1 && self.ends_cvc(self.w.len()) {
                    self.w.push('e');
                }
            }
        }

        fn step1c(&mut self) {
            if self.ends_with("y") && self.has_vowel(self.stem_len("y")) {
                let n = self.w.len();
                self.w[n - 1] = 'i';
            }
        }

        fn step2(&mut self) {
            for (suffix, with) in super::STEP2 {
                if self.rule(suffix, with, 0) {
                    return;
                }
            }
        }

        fn step3(&mut self) {
            for (suffix, with) in super::STEP3 {
                if self.rule(suffix, with, 0) {
                    return;
                }
            }
        }

        fn step4(&mut self) {
            if self.ends_with("ion") {
                let keep = self.stem_len("ion");
                if keep >= 1 && matches!(self.w[keep - 1], 's' | 't') && self.measure(keep) > 1 {
                    self.replace("ion", "");
                }
                return;
            }
            for suffix in super::STEP4 {
                if self.ends_with(suffix) {
                    if self.measure(self.stem_len(suffix)) > 1 {
                        self.replace(suffix, "");
                    }
                    return;
                }
            }
        }

        fn step5a(&mut self) {
            if self.ends_with("e") {
                let keep = self.stem_len("e");
                let m = self.measure(keep);
                if m > 1 || (m == 1 && !self.ends_cvc(keep)) {
                    self.replace("e", "");
                }
            }
        }

        fn step5b(&mut self) {
            if self.double_cons()
                && self.w[self.w.len() - 1] == 'l'
                && self.measure(self.w.len()) > 1
            {
                self.w.pop();
            }
        }
    }
}

/// Porter's step 2 rules, in the order they are tried.
const STEP2: &[(&str, &str)] = &[
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
];

/// Porter's step 3 rules.
const STEP3: &[(&str, &str)] = &[
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
];

/// Porter's step 4 suffixes ("ion" is tested first, on its own).
const STEP4: &[&str] = &[
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ou", "ism",
    "ate", "iti", "ous", "ive", "ize",
];

/// Every suffix any step tests or writes, plus the letters the step 1b
/// clean-up and step 5 look at.
fn suffixes() -> Vec<&'static str> {
    let mut all = vec![
        "", "sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y", "ion", "sion",
        "tion", "e", "l", "ll", "ee", "i",
    ];
    for (suffix, with) in STEP2.iter().chain(STEP3) {
        all.push(suffix);
        all.push(with);
    }
    all.extend(STEP4);
    all
}

/// Base words: empty, short, consonant- and vowel-heavy, `y`-words,
/// doubled consonants and cvc endings, so every measure condition is
/// reached on both sides.
const BASES: &[&str] = &[
    "", "a", "b", "y", "be", "ye", "cat", "hop", "tan", "fil", "sky", "ply", "tree", "agre",
    "conflat", "troubl", "plaster", "motor", "relat", "condit", "ration", "digit", "oper",
    "feud", "decis", "hope", "callous", "formal", "electr", "triplic", "reviv", "allow", "infer",
    "airlin", "gyroscop", "adjust", "defens", "irrit", "replac", "depend", "adopt", "commun",
    "activ", "effect", "rol", "control", "gener", "oscil", "syzygy", "rhythm", "queue", "strength",
    "happ", "hiss", "fizz", "fall", "sing", "bled", "ss", "xyl", "yyy",
];

fn assert_same(word: &str) {
    assert_eq!(
        porter_stem(word),
        reference::porter_stem(word),
        "porter_stem({word:?})"
    );
}

#[test]
fn porter_reference_vectors_match_the_reference() {
    let cases = [
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("ties", "ti"),
        ("caress", "caress"),
        ("cats", "cat"),
        ("feed", "feed"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("bled", "bled"),
        ("motoring", "motor"),
        ("sing", "sing"),
        ("conflated", "conflat"),
        ("troubled", "troubl"),
        ("sized", "size"),
        ("hopping", "hop"),
        ("tanned", "tan"),
        ("falling", "fall"),
        ("hissing", "hiss"),
        ("fizzed", "fizz"),
        ("failing", "fail"),
        ("filing", "file"),
        ("happy", "happi"),
        ("sky", "sky"),
        ("relational", "relat"),
        ("conditional", "condit"),
        ("rational", "ration"),
        ("valenci", "valenc"),
        ("hesitanci", "hesit"),
        ("digitizer", "digit"),
        ("conformabli", "conform"),
        ("radicalli", "radic"),
        ("differentli", "differ"),
        ("vileli", "vile"),
        ("analogousli", "analog"),
        ("vietnamization", "vietnam"),
        ("predication", "predic"),
        ("operator", "oper"),
        ("feudalism", "feudal"),
        ("decisiveness", "decis"),
        ("hopefulness", "hope"),
        ("callousness", "callous"),
        ("formaliti", "formal"),
        ("sensitiviti", "sensit"),
        ("sensibiliti", "sensibl"),
        ("triplicate", "triplic"),
        ("formative", "form"),
        ("formalize", "formal"),
        ("electriciti", "electr"),
        ("electrical", "electr"),
        ("hopeful", "hope"),
        ("goodness", "good"),
        ("revival", "reviv"),
        ("allowance", "allow"),
        ("inference", "infer"),
        ("airliner", "airlin"),
        ("gyroscopic", "gyroscop"),
        ("adjustable", "adjust"),
        ("defensible", "defens"),
        ("irritant", "irrit"),
        ("replacement", "replac"),
        ("adjustment", "adjust"),
        ("dependent", "depend"),
        ("adoption", "adopt"),
        ("homologou", "homolog"),
        ("communism", "commun"),
        ("activate", "activ"),
        ("angulariti", "angular"),
        ("homologous", "homolog"),
        ("effective", "effect"),
        ("bowdlerize", "bowdler"),
        ("probate", "probat"),
        ("rate", "rate"),
        ("cease", "ceas"),
        ("controll", "control"),
        ("roll", "roll"),
        ("controlling", "control"),
        ("generalization", "gener"),
        ("oscillators", "oscil"),
    ];
    for (input, expected) in cases {
        assert_eq!(reference::porter_stem(input), expected, "reference({input})");
        assert_same(input);
        assert_same(&input.to_uppercase());
    }
}

#[test]
fn every_base_with_every_rule_suffix_matches_the_reference() {
    let suffixes = suffixes();
    let mut checked = 0usize;
    for base in BASES {
        for first in &suffixes {
            let word = format!("{base}{first}");
            assert_same(&word);
            // A second suffix after the first reaches the rules that
            // only fire once an earlier step has rewritten the word.
            for second in &suffixes {
                assert_same(&format!("{word}{second}"));
                checked += 1;
            }
        }
    }
    assert!(checked > 100_000, "only {checked} words checked");
}

#[test]
fn words_outside_the_stemmer_domain_are_only_lowercased() {
    // Digits, non-ASCII letters and letters whose lowercase is ASCII
    // (the Kelvin sign, U+212A) all follow the reference.
    for word in [
        "v7", "42", "2001", "café", "CAFÉ", "straße", "ﬁnals", "İstanbul", "\u{212A}ELVINS",
        "ab", "AB", "é", "ﬁ",
    ] {
        assert_same(word);
    }
    assert_eq!(porter_stem("café"), "café");
    assert_eq!(porter_stem("\u{212A}ELVINS"), "kelvin");
}

/// A word built to hit the rule tables: a random stem, a table suffix,
/// and a random case per letter.
fn arb_suffixed_word() -> impl Strategy<Value = String> {
    let all = suffixes();
    ("[a-z]{0,7}", 0..all.len(), prop::collection::vec(any::<bool>(), 16)).prop_map(
        move |(stem, pick, upper)| {
            format!("{stem}{}", all[pick])
                .chars()
                .zip(upper.iter().cycle())
                .map(|(c, &up)| if up { c.to_ascii_uppercase() } else { c })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn porter_stem_matches_the_reference_on_mixed_script(word in "[a-zA-Z0-9éßﬁİ\u{212A}]{0,14}") {
        prop_assert_eq!(porter_stem(&word), reference::porter_stem(&word));
    }

    #[test]
    fn porter_stem_matches_the_reference_on_suffixed_words(word in arb_suffixed_word()) {
        prop_assert_eq!(porter_stem(&word), reference::porter_stem(&word));
    }

    #[test]
    fn tokenize_and_stem_matches_the_reference(text in "[a-zA-Z0-9éßﬁİ\u{212A} .,-]{0,80}") {
        prop_assert_eq!(tokenize_and_stem(&text), reference::tokenize_and_stem(&text));
    }

    #[test]
    fn tokenize_and_stem_matches_on_suffixed_sentences(
        words in prop::collection::vec(arb_suffixed_word(), 0..12)
    ) {
        let text = words.join(" ");
        prop_assert_eq!(tokenize_and_stem(&text), reference::tokenize_and_stem(&text));
    }
}
