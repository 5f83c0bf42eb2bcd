//! Recursive-descent parser for the feature grammar language.
//!
//! The accepted syntax is exactly what the paper's figures use:
//!
//! ```text
//! %start MMO(location);
//! %detector header(location);            // linked blackbox
//! %detector header.init();               // special hook
//! %detector xml-rpc::segment(location);  // external blackbox
//! %detector video_type primary == "video";            // whitebox
//! %detector netplay some[tennis.frame](player.yPos <= 170.0);
//! %atom url;                             // new ADT
//! %atom url location;                    // terminals with an ADT
//! MMO : location header mm_type?;        // rules, ?,*,+ and (…|…)
//! type : "tennis" tennis;                // literals select alternatives
//! anchor : &MMO embedded link?;          // references
//! ```

use crate::ast::{
    AtomDecl, DetectorDecl, DetectorKind, Grammar, PathExpr, Rep, Rule, SpecialEvent, StartDecl,
    Term, TermRep, Transport,
};
use crate::error::{Error, Result};
use crate::expr::{BinOp, Expr, Quantifier};
use crate::lex::{tokenize, Token, TokenKind};
use crate::symbols::SymbolTable;
use crate::validate;
use crate::value::FeatureValue;

/// Parses and validates a feature grammar.
pub fn parse_grammar(source: &str) -> Result<Grammar> {
    let grammar = parse_grammar_raw(source)?;
    validate::check(&grammar)?;
    Ok(grammar)
}

/// Parses without the well-formedness pass (used by tests that exercise
/// [`validate`] on deliberately broken grammars).
pub fn parse_grammar_raw(source: &str) -> Result<Grammar> {
    let tokens = tokenize(source)?;
    Parser {
        tokens,
        pos: 0,
    }
    .run()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn here(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| (t.line, t.col))
            .unwrap_or((1, 1))
    }

    fn err(&self, message: impl Into<String>) -> Error {
        let (line, col) = self.here();
        Error::syntax(line, col, message)
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos)?.kind.clone();
        self.pos += 1;
        Some(t)
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.peek() == Some(kind) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.peek() {
            Some(TokenKind::Ident(_)) => match self.bump() {
                Some(TokenKind::Ident(s)) => Ok(s),
                _ => unreachable!(),
            },
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn run(mut self) -> Result<Grammar> {
        let mut start: Option<StartDecl> = None;
        let mut detectors = Vec::new();
        let mut atoms = Vec::new();
        let mut rules = Vec::new();

        while let Some(kind) = self.peek() {
            match kind {
                TokenKind::Percent(kw) => {
                    let kw = kw.clone();
                    self.pos += 1;
                    match kw.as_str() {
                        "start" => {
                            if start.is_some() {
                                return Err(self.err("duplicate %start declaration"));
                            }
                            start = Some(self.parse_start()?);
                        }
                        "detector" => detectors.push(self.parse_detector()?),
                        "atom" => atoms.push(self.parse_atom()?),
                        other => {
                            return Err(self.err(format!("unknown declaration %{other}")))
                        }
                    }
                }
                TokenKind::Ident(_) => {
                    rules.extend(self.parse_rule()?);
                }
                other => return Err(self.err(format!("unexpected token {other:?}"))),
            }
        }

        let start = start.ok_or_else(|| self.err("missing %start declaration"))?;
        let symbols = build_symbols(&detectors, &atoms, &rules);
        Ok(Grammar::assemble(start, detectors, atoms, rules, symbols))
    }

    fn parse_start(&mut self) -> Result<StartDecl> {
        let symbol = self.expect_ident("start symbol")?;
        let mut args = Vec::new();
        if self.peek() == Some(&TokenKind::LParen) {
            self.pos += 1;
            if self.peek() != Some(&TokenKind::RParen) {
                loop {
                    args.push(self.parse_path()?);
                    if self.peek() == Some(&TokenKind::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen, "`)`")?;
        }
        self.expect(&TokenKind::Semi, "`;`")?;
        Ok(StartDecl { symbol, args })
    }

    fn parse_detector(&mut self) -> Result<DetectorDecl> {
        let first = self.expect_ident("detector name")?;

        // Transport prefix: `xml-rpc::segment(...)`.
        if self.peek() == Some(&TokenKind::ColonColon) {
            let transport = Transport::from_prefix(&first)
                .ok_or_else(|| self.err(format!("unknown detector transport `{first}`")))?;
            self.pos += 1;
            let name = self.expect_ident("detector name after `::`")?;
            let inputs = self.parse_input_list()?;
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(DetectorDecl {
                name,
                kind: DetectorKind::Blackbox { transport, inputs },
            });
        }

        // Special hook: `header.init();`.
        if self.peek() == Some(&TokenKind::Dot) {
            self.pos += 1;
            let event_name = self.expect_ident("lifecycle event")?;
            let event = SpecialEvent::from_name(&event_name).ok_or_else(|| {
                self.err(format!(
                    "unknown lifecycle event `{event_name}` (expected init/final/begin/end)"
                ))
            })?;
            self.expect(&TokenKind::LParen, "`(`")?;
            self.expect(&TokenKind::RParen, "`)`")?;
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(DetectorDecl {
                name: format!("{first}.{event_name}"),
                kind: DetectorKind::Special {
                    target: first,
                    event,
                },
            });
        }

        // Linked blackbox: `header(location);`.
        if self.peek() == Some(&TokenKind::LParen) {
            let inputs = self.parse_input_list()?;
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(DetectorDecl {
                name: first,
                kind: DetectorKind::Blackbox {
                    transport: Transport::Linked,
                    inputs,
                },
            });
        }

        // Whitebox. Quantified form: `netplay some[path]( expr )`.
        if let Some(TokenKind::Ident(q)) = self.peek() {
            if let Some(quant) = Quantifier::from_name(q) {
                if self.peek2() == Some(&TokenKind::LBracket) {
                    self.pos += 2; // quantifier ident + '['
                    let qpath = self.parse_path()?;
                    self.expect(&TokenKind::RBracket, "`]`")?;
                    self.expect(&TokenKind::LParen, "`(`")?;
                    let body = self.parse_expr()?;
                    self.expect(&TokenKind::RParen, "`)`")?;
                    self.expect(&TokenKind::Semi, "`;`")?;
                    return Ok(DetectorDecl {
                        name: first,
                        kind: DetectorKind::Whitebox {
                            quantifier: Some((quant, qpath.clone())),
                            predicate: Expr::Quantified {
                                q: quant,
                                path: qpath,
                                body: Box::new(body),
                            },
                        },
                    });
                }
            }
        }

        // Plain whitebox: `video_type primary == "video";`.
        let predicate = self.parse_expr()?;
        self.expect(&TokenKind::Semi, "`;`")?;
        Ok(DetectorDecl {
            name: first,
            kind: DetectorKind::Whitebox {
                quantifier: None,
                predicate,
            },
        })
    }

    fn parse_input_list(&mut self) -> Result<Vec<PathExpr>> {
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut inputs = Vec::new();
        if self.peek() != Some(&TokenKind::RParen) {
            loop {
                inputs.push(self.parse_path()?);
                if self.peek() == Some(&TokenKind::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok(inputs)
    }

    fn parse_path(&mut self) -> Result<PathExpr> {
        let mut segs = vec![self.expect_ident("path segment")?];
        while self.peek() == Some(&TokenKind::Dot) {
            self.pos += 1;
            segs.push(self.expect_ident("path segment after `.`")?);
        }
        Ok(PathExpr(segs))
    }

    fn parse_atom(&mut self) -> Result<AtomDecl> {
        let ty = self.expect_ident("atom type")?;
        if self.peek() == Some(&TokenKind::Semi) {
            self.pos += 1;
            return Ok(AtomDecl::Type(ty));
        }
        let mut names = vec![self.expect_ident("atom name")?];
        while self.peek() == Some(&TokenKind::Comma) {
            self.pos += 1;
            names.push(self.expect_ident("atom name after `,`")?);
        }
        self.expect(&TokenKind::Semi, "`;`")?;
        Ok(AtomDecl::Terminals { ty, names })
    }

    /// Parses one rule; top-level `|` yields several [`Rule`]s sharing
    /// the lhs (alternatives).
    fn parse_rule(&mut self) -> Result<Vec<Rule>> {
        let lhs = self.expect_ident("rule left-hand side")?;
        self.expect(&TokenKind::Colon, "`:`")?;
        let mut rules = Vec::new();
        loop {
            let rhs = self.parse_sequence()?;
            rules.push(Rule {
                lhs: lhs.clone(),
                rhs,
            });
            match self.peek() {
                Some(TokenKind::Pipe) => {
                    self.pos += 1;
                }
                Some(TokenKind::Semi) => {
                    self.pos += 1;
                    break;
                }
                other => return Err(self.err(format!("expected `|` or `;`, found {other:?}"))),
            }
        }
        Ok(rules)
    }

    /// Parses a sequence of terms (stops at `|`, `;` or `)`).
    fn parse_sequence(&mut self) -> Result<Vec<TermRep>> {
        let mut seq = Vec::new();
        loop {
            let term = match self.peek() {
                Some(TokenKind::Ident(_)) => {
                    let name = self.expect_ident("symbol")?;
                    Term::Symbol(name)
                }
                Some(TokenKind::Str(_)) => match self.bump() {
                    Some(TokenKind::Str(s)) => Term::Literal(s),
                    _ => unreachable!(),
                },
                Some(TokenKind::Amp) => {
                    self.pos += 1;
                    Term::Reference(self.expect_ident("symbol after `&`")?)
                }
                Some(TokenKind::LParen) => {
                    self.pos += 1;
                    let mut alts = vec![self.parse_sequence()?];
                    while self.peek() == Some(&TokenKind::Pipe) {
                        self.pos += 1;
                        alts.push(self.parse_sequence()?);
                    }
                    self.expect(&TokenKind::RParen, "`)`")?;
                    Term::Group(alts)
                }
                _ => break,
            };
            let rep = match self.peek() {
                Some(TokenKind::Question) => {
                    self.pos += 1;
                    Rep::Opt
                }
                Some(TokenKind::Star) => {
                    self.pos += 1;
                    Rep::Star
                }
                Some(TokenKind::Plus) => {
                    self.pos += 1;
                    Rep::Plus
                }
                _ => Rep::One,
            };
            seq.push(TermRep { term, rep });
        }
        Ok(seq)
    }

    // ---- predicate expressions (Pratt parser) ----

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.peek() == Some(&TokenKind::OrOr) {
            self.pos += 1;
            let rhs = self.parse_and()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_cmp()?;
        while self.peek() == Some(&TokenKind::AndAnd) {
            self.pos += 1;
            let rhs = self.parse_cmp()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(TokenKind::EqEq) => BinOp::Eq,
            Some(TokenKind::NotEq) => BinOp::Ne,
            Some(TokenKind::Le) => BinOp::Le,
            Some(TokenKind::Ge) => BinOp::Ge,
            Some(TokenKind::Lt) => BinOp::Lt,
            Some(TokenKind::Gt) => BinOp::Gt,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.parse_add()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_mul()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        match self.peek() {
            Some(TokenKind::Not) => {
                self.pos += 1;
                Ok(Expr::Not(Box::new(self.parse_unary()?)))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(TokenKind::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Lit(FeatureValue::Int(i)))
            }
            Some(TokenKind::Flt(f)) => {
                self.pos += 1;
                Ok(Expr::Lit(FeatureValue::Flt(f)))
            }
            Some(TokenKind::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Lit(FeatureValue::Str(s)))
            }
            Some(TokenKind::LParen) => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            Some(TokenKind::Ident(name)) => {
                // Boolean literals.
                if name == "true" || name == "false" {
                    self.pos += 1;
                    return Ok(Expr::Lit(FeatureValue::Bit(name == "true")));
                }
                // Nested quantifier: `some[path]( expr )`.
                if let Some(q) = Quantifier::from_name(&name) {
                    if self.peek2() == Some(&TokenKind::LBracket) {
                        self.pos += 2;
                        let path = self.parse_path()?;
                        self.expect(&TokenKind::RBracket, "`]`")?;
                        self.expect(&TokenKind::LParen, "`(`")?;
                        let body = self.parse_expr()?;
                        self.expect(&TokenKind::RParen, "`)`")?;
                        return Ok(Expr::Quantified {
                            q,
                            path,
                            body: Box::new(body),
                        });
                    }
                }
                let path = self.parse_path()?;
                Ok(Expr::Path(path))
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

fn build_symbols(
    detectors: &[DetectorDecl],
    atoms: &[AtomDecl],
    rules: &[Rule],
) -> SymbolTable {
    crate::symbols::build_table(detectors, atoms, rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{DetectorKind, Rep, Term};

    /// The verbatim Figure 6 fragment (minus line numbers).
    pub const FIGURE6: &str = r#"
%start MMO(location);

%detector header(location);
%detector header.init();
%detector header.final();

%detector video_type primary == "video";

%atom url;

%atom url location;
%atom str primary;
%atom str secondary;

MMO : location header mm_type?;
header : MIME_type;
MIME_type : primary secondary;
mm_type : video_type video;
video : segment;
segment : shot*;
shot : begin end type;
begin : frameNo;
end : frameNo;
type : "tennis" tennis;
type : "other";
tennis : frame* event;
frame : frameNo player;
player : xPos yPos Area Ecc Orient;
event : netplay;

%detector xml-rpc::segment(location);
%detector xml-rpc::tennis(location,begin.frameNo,end.frameNo);

%detector netplay some[tennis.frame](
    player.yPos <= 170.0
);

%atom flt xPos,yPos,Ecc,Orient;
%atom int frameNo,Area;
%atom bit netplay;
"#;

    #[test]
    fn figure6_and_7_parse_verbatim() {
        let g = parse_grammar(FIGURE6).unwrap();
        assert_eq!(g.start().symbol, "MMO");
        assert_eq!(g.start().args.len(), 1);
        assert_eq!(g.start().args[0].to_string(), "location");
        assert!(g.detector("header").is_some());
        assert!(g.detector("segment").is_some());
        assert!(g.detector("tennis").is_some());
        assert!(g.detector("netplay").is_some());
        assert!(g.detector("video_type").is_some());
        let header_hooks = g
            .detectors()
            .iter()
            .filter(
                |d| matches!(&d.kind, DetectorKind::Special { target, .. } if target == "header"),
            )
            .count();
        assert_eq!(header_hooks, 2);
        assert_eq!(g.rules_for("type").len(), 2);
    }

    #[test]
    fn figure14_internet_grammar_parses() {
        let src = r#"
%start html(location);
%atom url;
%atom url location;
%atom str word, title, embedded, link, alternative;
html : title? body? anchor* ;
body : &keyword+;
anchor : &MMO embedded link? alternative?;
keyword : word;
MMO : location;
"#;
        let g = parse_grammar(src).unwrap();
        let body = &g.rules_for("body")[0];
        assert_eq!(body.rhs.len(), 1);
        assert!(matches!(&body.rhs[0].term, Term::Reference(s) if s == "keyword"));
        assert_eq!(body.rhs[0].rep, Rep::Plus);
        let anchor = &g.rules_for("anchor")[0];
        assert!(matches!(&anchor.rhs[0].term, Term::Reference(s) if s == "MMO"));
    }

    #[test]
    fn transports_parse() {
        let src = r#"
%start a(x);
%atom str x;
%detector xml-rpc::p(x);
%detector corba::q(x);
%detector exec::r(x);
a : x p q r;
p : x; q : x; r : x;
"#;
        let g = parse_grammar(src).unwrap();
        for (name, transport) in [
            ("p", Transport::XmlRpc),
            ("q", Transport::Corba),
            ("r", Transport::Exec),
        ] {
            match &g.detector(name).unwrap().kind {
                DetectorKind::Blackbox { transport: t, .. } => assert_eq!(*t, transport),
                other => panic!("{name}: {other:?}"),
            }
        }
    }

    #[test]
    fn whitebox_quantifier_shapes() {
        let src = r#"
%start a(x);
%atom flt x;
%detector w all[a.b]( c.d > 1.0 && !(e == "s") );
a : x w;
"#;
        let g = parse_grammar_raw(src).unwrap();
        match &g.detector("w").unwrap().kind {
            DetectorKind::Whitebox {
                quantifier: Some((q, p)),
                ..
            } => {
                assert_eq!(*q, Quantifier::All);
                assert_eq!(p.to_string(), "a.b");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn group_alternatives_parse() {
        let src = r#"
%start a(x);
%atom str x, y, z;
a : ( x y | z )+ ;
"#;
        let g = parse_grammar(src).unwrap();
        let rule = &g.rules_for("a")[0];
        match &rule.rhs[0].term {
            Term::Group(alts) => {
                assert_eq!(alts.len(), 2);
                assert_eq!(alts[0].len(), 2);
                assert_eq!(alts[1].len(), 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(rule.rhs[0].rep, Rep::Plus);
    }

    #[test]
    fn top_level_pipe_splits_alternatives() {
        let src = r#"
%start a(x);
%atom str x, y;
a : x | y ;
"#;
        let g = parse_grammar(src).unwrap();
        assert_eq!(g.rules_for("a").len(), 2);
    }

    #[test]
    fn missing_start_is_an_error() {
        let err = parse_grammar("%atom str x; a : x;").unwrap_err();
        assert!(err.to_string().contains("%start"));
    }

    #[test]
    fn duplicate_start_is_an_error() {
        let err = parse_grammar("%start a(x); %start b(x); %atom str x; a : x;").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn unknown_transport_is_an_error() {
        let err =
            parse_grammar("%start a(x); %atom str x; %detector soap::d(x); a : x d; d : x;")
                .unwrap_err();
        assert!(err.to_string().contains("transport"));
    }

    #[test]
    fn unknown_lifecycle_event_is_an_error() {
        let err = parse_grammar("%start a(x); %atom str x; %detector a.reset(); a : x;")
            .unwrap_err();
        assert!(err.to_string().contains("lifecycle"));
    }

    #[test]
    fn empty_alternative_is_allowed() {
        let src = "%start a(x); %atom str x; a : x b; b : ;";
        let g = parse_grammar(src).unwrap();
        assert_eq!(g.rules_for("b")[0].rhs.len(), 0);
    }

    #[test]
    fn last_obligatory_symbol_skips_optionals_and_literals() {
        let src = r#"
%start a(x);
%atom str x, y, z;
a : x y? "lit" z* ;
"#;
        let g = parse_grammar(src).unwrap();
        assert_eq!(g.rules_for("a")[0].last_obligatory_symbol(), Some("x"));
    }
}
