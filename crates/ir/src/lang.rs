//! Language detection for HTML pages.
//!
//! The paper's Internet-scale grammar lists "language detection for HTML
//! pages \[TNO01\]" among the generic detectors. This is a compact
//! stop-word-profile classifier (the practical core of the era's n-gram
//! detectors): each language is characterised by its most frequent
//! function words; a page is scored by how much of it is covered by each
//! profile.

use serde::{Deserialize, Serialize};

/// Languages the detector knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Language {
    /// English.
    English,
    /// Dutch (the authors' — CWI's — home language).
    Dutch,
    /// German.
    German,
    /// French.
    French,
}

impl Language {
    /// ISO-639-1 code.
    pub fn code(self) -> &'static str {
        match self {
            Language::English => "en",
            Language::Dutch => "nl",
            Language::German => "de",
            Language::French => "fr",
        }
    }
}

const PROFILES: &[(Language, &[&str])] = &[
    (
        Language::English,
        &[
            "the", "and", "of", "to", "in", "is", "was", "that", "for", "it", "with", "as",
            "his", "her", "on", "at", "by", "from", "this", "which",
        ],
    ),
    (
        Language::Dutch,
        &[
            "de", "het", "een", "en", "van", "in", "is", "dat", "op", "te", "met", "voor",
            "zijn", "er", "aan", "niet", "ook", "door", "naar", "bij",
        ],
    ),
    (
        Language::German,
        &[
            "der", "die", "das", "und", "ist", "von", "mit", "für", "auf", "ein", "eine",
            "nicht", "den", "dem", "des", "im", "zu", "sich", "auch", "als",
        ],
    ),
    (
        Language::French,
        &[
            "le", "la", "les", "de", "des", "et", "est", "un", "une", "dans", "pour", "que",
            "qui", "avec", "sur", "par", "au", "pas", "plus", "ce",
        ],
    ),
];

/// Detects the language of `text`; `None` when no profile covers at
/// least `min_coverage` of the tokens (e.g. code, tables, gibberish).
pub fn detect_language(text: &str, min_coverage: f64) -> Option<Language> {
    let tokens: Vec<String> = text
        .split(|c: char| !c.is_alphabetic())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
        .collect();
    if tokens.is_empty() {
        return None;
    }
    let mut best: Option<(Language, f64)> = None;
    for (language, profile) in PROFILES {
        let hits = tokens
            .iter()
            .filter(|t| profile.contains(&t.as_str()))
            .count();
        let coverage = hits as f64 / tokens.len() as f64;
        if coverage >= min_coverage
            && best.map(|(_, c)| coverage > c).unwrap_or(true)
        {
            best = Some((*language, coverage));
        }
    }
    best.map(|(l, _)| l)
}

/// Default coverage threshold (a tenth of the words must be function
/// words of the winning language).
pub const DEFAULT_MIN_COVERAGE: f64 = 0.1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_english() {
        let text = "The winner of the tournament was decided in the final set, \
                    and the crowd was on its feet for most of it.";
        assert_eq!(
            detect_language(text, DEFAULT_MIN_COVERAGE),
            Some(Language::English)
        );
    }

    #[test]
    fn detects_dutch() {
        let text = "De winnaar van het toernooi werd in de laatste set bepaald \
                    en het publiek was er met veel plezier bij.";
        assert_eq!(
            detect_language(text, DEFAULT_MIN_COVERAGE),
            Some(Language::Dutch)
        );
    }

    #[test]
    fn detects_german() {
        let text = "Der Sieger des Turniers wurde im letzten Satz ermittelt und \
                    die Zuschauer waren mit großer Freude dabei.";
        assert_eq!(
            detect_language(text, DEFAULT_MIN_COVERAGE),
            Some(Language::German)
        );
    }

    #[test]
    fn detects_french() {
        let text = "Le vainqueur du tournoi a été décidé dans le dernier set et \
                    le public était avec lui pour la plus grande partie.";
        assert_eq!(
            detect_language(text, DEFAULT_MIN_COVERAGE),
            Some(Language::French)
        );
    }

    #[test]
    fn gibberish_is_unclassified() {
        assert_eq!(detect_language("zzz qqq xxx 123", 0.1), None);
        assert_eq!(detect_language("", 0.1), None);
    }

    #[test]
    fn codes_are_iso() {
        assert_eq!(Language::English.code(), "en");
        assert_eq!(Language::Dutch.code(), "nl");
    }
}
