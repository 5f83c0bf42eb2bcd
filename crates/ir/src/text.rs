//! Tokenisation, stop words and the Porter stemmer.
//!
//! "Note that the terms to be stored in this relation actually will be
//! the corresponding stems. Stop terms are expected to be filtered out."
//! The stemmer is a from-scratch implementation of Porter's 1980
//! algorithm (the standard choice of the era's IR systems).

/// The classic short English stop list.
pub const STOP_WORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has", "have",
    "he", "her", "his", "if", "in", "into", "is", "it", "its", "no", "not", "of", "on", "or",
    "she", "such", "that", "the", "their", "then", "there", "these", "they", "this", "to", "was",
    "were", "which", "will", "with",
];

/// Whether `word` (lowercase) is a stop word.
pub fn is_stop_word(word: &str) -> bool {
    STOP_WORDS.binary_search(&word).is_ok()
}

/// Case-insensitive stop-word test for ASCII tokens, so the hot
/// tokenisation loop can filter *before* allocating a lowercased copy.
/// `STOP_WORDS` entries are lowercase ASCII (asserted in tests), so
/// comparing against the token's bytes mapped through
/// `to_ascii_lowercase` is exactly `is_stop_word(&token.to_lowercase())`.
fn is_stop_word_ignore_ascii_case(token: &str) -> bool {
    STOP_WORDS
        .binary_search_by(|stop| {
            stop.bytes()
                .cmp(token.bytes().map(|b| b.to_ascii_lowercase()))
        })
        .is_ok()
}

/// Splits text into lowercase alphanumeric tokens, drops stop words and
/// single characters, and stems the rest — the exact preprocessing the
/// paper's "stemmer and stopper" perform before matching against `T`.
///
/// Most tokens in a web corpus are stop words or single characters;
/// filtering happens before any allocation, so only surviving tokens pay
/// for a `String` (built inside [`porter_stem`], which lowercases its
/// input itself).
pub fn tokenize_and_stem(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for raw in text.split(|c: char| !c.is_alphanumeric()) {
        if raw.is_ascii() {
            // ASCII fast path: lowercasing preserves byte length, so the
            // length and stop-word filters run on the raw slice.
            if raw.len() > 1 && !is_stop_word_ignore_ascii_case(raw) {
                out.push(porter_stem(raw));
            }
        } else {
            // Unicode lowercasing can change byte length (ﬁ → fi); keep
            // the original lowercase-then-filter semantics.
            let lower = raw.to_lowercase();
            if lower.len() > 1 && !is_stop_word(&lower) {
                out.push(porter_stem(&lower));
            }
        }
    }
    out
}

/// Porter's stemming algorithm (M.F. Porter, "An algorithm for suffix
/// stripping", 1980). Words shorter than 3 letters return unchanged.
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
    /// Is the letter at `i` a consonant? ("A consonant is a letter other
    /// than A, E, I, O or U, and other than Y preceded by a consonant.")
    fn is_cons(&self, i: usize) -> bool {
        match self.w[i] {
            'a' | 'e' | 'i' | 'o' | 'u' => false,
            'y' => i == 0 || !self.is_cons(i - 1),
            _ => true,
        }
    }

    /// The measure `m` of the first `len` letters: the number of VC
    /// sequences in `[C](VC)^m[V]`.
    fn measure(&self, len: usize) -> usize {
        let mut m = 0;
        let mut i = 0;
        // Skip the initial consonant run.
        while i < len && self.is_cons(i) {
            i += 1;
        }
        loop {
            // Vowel run.
            while i < len && !self.is_cons(i) {
                i += 1;
            }
            if i >= len {
                return m;
            }
            // Consonant run → one VC.
            while i < len && self.is_cons(i) {
                i += 1;
            }
            m += 1;
        }
    }

    /// Does the first `len` letters contain a vowel?
    fn has_vowel(&self, len: usize) -> bool {
        (0..len).any(|i| !self.is_cons(i))
    }

    /// Does the word end with a double consonant?
    fn double_cons(&self) -> bool {
        let n = self.w.len();
        n >= 2 && self.w[n - 1] == self.w[n - 2] && self.is_cons(n - 1)
    }

    /// Does the first `len` letters end consonant-vowel-consonant, where
    /// the final consonant is not w, x or y?
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

    /// Length of the stem if `suffix` were removed.
    fn stem_len(&self, suffix: &str) -> usize {
        self.w.len() - suffix.chars().count()
    }

    fn replace(&mut self, suffix: &str, with: &str) {
        let keep = self.stem_len(suffix);
        self.w.truncate(keep);
        self.w.extend(with.chars());
    }

    /// If the word ends with `suffix` and the remaining stem has measure
    /// greater than `min_m`, replace the suffix. Returns whether the
    /// suffix matched (even if the measure condition failed — per
    /// Porter, a matched rule consumes the step).
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
            // unchanged
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
            } else if self.double_cons() && !matches!(self.w[self.w.len() - 1], 'l' | 's' | 'z') {
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
        const RULES: &[(&str, &str)] = &[
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
        for (suffix, with) in RULES {
            if self.rule(suffix, with, 0) {
                return;
            }
        }
    }

    fn step3(&mut self) {
        const RULES: &[(&str, &str)] = &[
            ("icate", "ic"),
            ("ative", ""),
            ("alize", "al"),
            ("iciti", "ic"),
            ("ical", "ic"),
            ("ful", ""),
            ("ness", ""),
        ];
        for (suffix, with) in RULES {
            if self.rule(suffix, with, 0) {
                return;
            }
        }
    }

    fn step4(&mut self) {
        const RULES: &[&str] = &[
            "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent",
            "ou", "ism", "ate", "iti", "ous", "ive", "ize",
        ];
        // "ion" needs a preceding s or t.
        if self.ends_with("ion") {
            let keep = self.stem_len("ion");
            if keep >= 1 && matches!(self.w[keep - 1], 's' | 't') && self.measure(keep) > 1 {
                self.replace("ion", "");
            }
            return;
        }
        for suffix in RULES {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_words_are_sorted_for_binary_search() {
        // `is_stop_word` binary-searches STOP_WORDS, so the list must be
        // strictly sorted (sorted + free of duplicates); a future edit
        // that breaks ordering would silently drop stop-word filtering.
        for pair in STOP_WORDS.windows(2) {
            assert!(
                pair[0] < pair[1],
                "STOP_WORDS out of order or duplicated at `{}` / `{}`",
                pair[0],
                pair[1]
            );
        }
        // The case-insensitive fast path additionally assumes every
        // entry is lowercase ASCII.
        for word in STOP_WORDS {
            assert!(
                word.bytes().all(|b| b.is_ascii_lowercase()),
                "stop word `{word}` is not lowercase ASCII"
            );
        }
        assert!(is_stop_word("the"));
        assert!(!is_stop_word("tennis"));
        // Every entry is found by both lookups, in any case mix.
        for word in STOP_WORDS {
            assert!(is_stop_word(word));
            assert!(is_stop_word_ignore_ascii_case(word));
            assert!(is_stop_word_ignore_ascii_case(&word.to_uppercase()));
        }
        assert!(!is_stop_word_ignore_ascii_case("Tennis"));
    }

    #[test]
    fn tokenize_filters_before_allocating_without_changing_results() {
        // Mixed-case stop words, single chars, digits and punctuation all
        // behave exactly as the old lowercase-first pipeline did.
        let terms = tokenize_and_stem("THE And a I Winner v7 IS his 42 net-play");
        assert_eq!(terms, vec!["winner", "v7", "42", "net", "plai"]);
    }

    #[test]
    fn porter_reference_vectors() {
        // Vectors from Porter's paper and the canonical test set.
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
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            // Step 3 gives electric; step 4 then strips -ic (m > 1).
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
            ("communism", "commun"),
            ("activate", "activ"),
            ("effective", "effect"),
            ("rate", "rate"),
            ("roll", "roll"),
            ("controlling", "control"),
            ("generalization", "gener"),
            ("oscillators", "oscil"),
        ];
        for (input, expected) in cases {
            assert_eq!(porter_stem(input), expected, "stem({input})");
        }
    }

    #[test]
    fn winner_and_champion_stems_used_by_the_paper_queries() {
        // The Figure 13 query searches for "Winner"; the Internet query
        // for words related to "champion".
        assert_eq!(porter_stem("winner"), "winner");
        assert_eq!(porter_stem("winners"), "winner");
        assert_eq!(porter_stem("winning"), "win");
        assert_eq!(porter_stem("champion"), "champion");
        assert_eq!(porter_stem("champions"), "champion");
    }

    #[test]
    fn short_words_pass_through() {
        assert_eq!(porter_stem("is"), "is");
        assert_eq!(porter_stem("by"), "by");
    }

    #[test]
    fn tokenize_and_stem_pipeline() {
        let terms = tokenize_and_stem("The Winner, Monica Seles, was winning matches!");
        assert_eq!(terms, vec!["winner", "monica", "sele", "win", "match"]);
    }

    #[test]
    fn non_ascii_tokens_survive_unstemmed() {
        let terms = tokenize_and_stem("café tennis");
        assert_eq!(terms, vec!["café", "tenni"]);
    }
}
