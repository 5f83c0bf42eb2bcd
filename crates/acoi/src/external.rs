//! External detector implementations behind a wire protocol.
//!
//! In the paper, "instead of linking the C code into the parser … this
//! detector is implemented externally (and may even run on a different
//! machine). To contact the external implementation the XML-RPC protocol
//! is used". This module reproduces that boundary faithfully — requests
//! and responses are XML documents travelling over a channel — without a
//! network (DESIGN.md §2): the *serialisation, dispatch and failure*
//! semantics are what the architecture depends on, not TCP.
//!
//! * [`encode_request`] / [`decode_request`] and [`encode_response`] /
//!   [`decode_response`] define the wire format,
//! * [`WireError`] types the three ways a remote call goes wrong:
//!   transport, decode, and remote fault,
//! * [`RpcServer`] hosts handler functions and answers requests; a
//!   [`FaultPlan`] can be attached to inject transport errors, hangs and
//!   garbage responses per detector (label `rpc:<name>`),
//! * [`spawn_server`] runs a server on its own thread,
//! * [`RpcClient::as_detector`] adapts a client into a [`DetectorFn`]
//!   that can be registered like any linked detector.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use faults::{FaultAction, FaultPlan};
use feagram::FeatureValue;
use monetxml::{parse_document, to_xml, Document};

use crate::detector::{DetectorError, DetectorFn};
use crate::token::Token;

/// How a wire-level call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The wire itself broke: the peer hung up or the send failed.
    Transport(String),
    /// Bytes arrived but did not parse as a protocol document.
    Decode(String),
    /// The protocol worked; the remote side reported a detector fault.
    Remote(DetectorError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Transport(msg) => write!(f, "transport error: {msg}"),
            WireError::Decode(msg) => write!(f, "decode error: {msg}"),
            WireError::Remote(e) => write!(f, "remote fault: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for DetectorError {
    fn from(e: WireError) -> Self {
        match e {
            // The call never completed — infrastructure, not a verdict.
            WireError::Transport(msg) => DetectorError::Unavailable(format!("transport: {msg}")),
            WireError::Decode(msg) => DetectorError::Unavailable(format!("decode: {msg}")),
            WireError::Remote(e) => e,
        }
    }
}

/// Encodes a call to `name` with `inputs` as an XML request.
pub fn encode_request(name: &str, inputs: &[FeatureValue]) -> String {
    let mut doc = Document::new("call");
    doc.set_attr(doc.root(), "name", name);
    for input in inputs {
        let root = doc.root();
        let arg = doc.add_element(root, "arg");
        doc.set_attr(arg, "type", input.type_name());
        doc.add_cdata(arg, input.lexical());
    }
    to_xml(&doc)
}

/// Decodes a request; returns the detector name and inputs.
pub fn decode_request(xml: &str) -> Result<(String, Vec<FeatureValue>), WireError> {
    let doc = parse_document(xml).map_err(|e| WireError::Decode(e.to_string()))?;
    let root = doc.root();
    if doc.tag(root) != Some("call") {
        return Err(WireError::Decode("expected <call> request".into()));
    }
    let name = doc
        .attr(root, "name")
        .ok_or_else(|| WireError::Decode("missing call name".into()))?
        .to_owned();
    let mut inputs = Vec::new();
    for arg in doc.children_by_tag(root, "arg") {
        let ty = doc
            .attr(arg, "type")
            .ok_or_else(|| WireError::Decode("missing arg type".into()))?;
        let lexical = doc
            .children(arg)
            .first()
            .and_then(|c| doc.text(*c))
            .unwrap_or("");
        let value = FeatureValue::from_lexical(ty, lexical)
            .ok_or_else(|| WireError::Decode(format!("bad {ty} value `{lexical}`")))?;
        inputs.push(value);
    }
    Ok((name, inputs))
}

/// Encodes a detector outcome as an XML response. Faults carry a `kind`
/// attribute (`reject` or `unavailable`) so the failure class survives
/// the wire.
pub fn encode_response(outcome: &Result<Vec<Token>, DetectorError>) -> String {
    let mut doc = Document::new("response");
    let root = doc.root();
    match outcome {
        Ok(tokens) => {
            for token in tokens {
                let t = doc.add_element(root, "token");
                doc.set_attr(t, "symbol", token.symbol.clone());
                doc.set_attr(t, "type", token.value.type_name());
                doc.add_cdata(t, token.value.lexical());
            }
        }
        Err(e) => {
            let (kind, message) = match e {
                DetectorError::Reject(msg) => ("reject", msg),
                DetectorError::Unavailable(msg) => ("unavailable", msg),
            };
            let f = doc.add_element(root, "fault");
            doc.set_attr(f, "kind", kind);
            doc.add_cdata(f, message.clone());
        }
    }
    to_xml(&doc)
}

/// Decodes a response back into a detector outcome.
pub fn decode_response(xml: &str) -> Result<Vec<Token>, WireError> {
    let doc = parse_document(xml).map_err(|e| WireError::Decode(e.to_string()))?;
    let root = doc.root();
    if doc.tag(root) != Some("response") {
        return Err(WireError::Decode("expected <response>".into()));
    }
    if let Some(fault) = doc.child_by_tag(root, "fault") {
        let msg = doc
            .children(fault)
            .first()
            .and_then(|c| doc.text(*c))
            .unwrap_or("remote fault")
            .to_owned();
        let remote = match doc.attr(fault, "kind") {
            Some("unavailable") => DetectorError::Unavailable(msg),
            // Absent or `reject`: the paper-era format, a plain verdict.
            _ => DetectorError::Reject(msg),
        };
        return Err(WireError::Remote(remote));
    }
    let mut tokens = Vec::new();
    for t in doc.children_by_tag(root, "token") {
        let symbol = doc
            .attr(t, "symbol")
            .ok_or_else(|| WireError::Decode("missing token symbol".into()))?;
        let ty = doc
            .attr(t, "type")
            .ok_or_else(|| WireError::Decode("missing token type".into()))?;
        let lexical = doc
            .children(t)
            .first()
            .and_then(|c| doc.text(*c))
            .unwrap_or("");
        let value = FeatureValue::from_lexical(ty, lexical)
            .ok_or_else(|| WireError::Decode(format!("bad {ty} value `{lexical}`")))?;
        tokens.push(Token {
            symbol: symbol.to_owned(),
            value,
        });
    }
    Ok(tokens)
}

/// How long an injected [`FaultAction::Hang`] stalls a call — longer
/// than any sane per-call deadline in tests.
const HANG: Duration = Duration::from_millis(200);

/// A server hosting external detector implementations.
///
/// An attached [`FaultPlan`] is consulted once per call under the label
/// `rpc:<detector>`; it can turn the answer into a transport-style
/// fault, stall it past the client's deadline, or corrupt the response.
#[derive(Default)]
pub struct RpcServer {
    handlers: HashMap<String, DetectorFn>,
    faults: Option<Arc<FaultPlan>>,
}

impl RpcServer {
    /// An empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handler for calls to `name`.
    pub fn handle(&mut self, name: impl Into<String>, f: DetectorFn) -> &mut Self {
        self.handlers.insert(name.into(), f);
        self
    }

    /// Attaches a fault plan consulted on every call (label
    /// `rpc:<detector>`).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Answers one raw request.
    pub fn serve(&mut self, request_xml: &str) -> String {
        let outcome = match decode_request(request_xml) {
            Ok((name, inputs)) => {
                let action = self
                    .faults
                    .as_ref()
                    .map_or(FaultAction::None, |plan| plan.decide(&format!("rpc:{name}")));
                match action {
                    FaultAction::Error => {
                        return encode_response(&Err(DetectorError::Unavailable(
                            "injected transport error".into(),
                        )));
                    }
                    FaultAction::Hang => std::thread::sleep(HANG),
                    FaultAction::Garbage => {
                        return "<<corrupted response>>".into();
                    }
                    FaultAction::None => {}
                }
                match self.handlers.get(&name) {
                    Some(f) => f(&inputs),
                    None => Err(DetectorError::Unavailable(format!(
                        "no remote handler for `{name}`"
                    ))),
                }
            }
            Err(e) => Err(DetectorError::from(e)),
        };
        encode_response(&outcome)
    }
}

/// A client holding the wire to a spawned server.
///
/// The wire has no correlation ids (faithful to the paper-era protocol),
/// so a call lock shared by every clone keeps each request paired with
/// its own response when parallel ingestion workers call concurrently.
#[derive(Clone)]
pub struct RpcClient {
    tx: Sender<String>,
    rx: Receiver<String>,
    call_lock: Arc<std::sync::Mutex<()>>,
}

impl RpcClient {
    /// Performs a remote call.
    pub fn call(&self, name: &str, inputs: &[FeatureValue]) -> Result<Vec<Token>, WireError> {
        let _wire = self.call_lock.lock().expect("rpc call lock poisoned");
        self.tx
            .send(encode_request(name, inputs))
            .map_err(|_| WireError::Transport("rpc server hung up".into()))?;
        let response = self
            .rx
            .recv()
            .map_err(|_| WireError::Transport("rpc server hung up".into()))?;
        decode_response(&response)
    }

    /// Adapts the client into a [`DetectorFn`] for detector `name`, so an
    /// external detector registers exactly like a linked one — "code for
    /// the protocol instantiation is generated". Wire-level failures
    /// surface as [`DetectorError::Unavailable`], remote faults keep
    /// their class.
    pub fn as_detector(&self, name: impl Into<String>) -> DetectorFn {
        let client = self.clone();
        let name = name.into();
        Box::new(move |inputs| {
            client
                .call(&name, inputs)
                .map_err(DetectorError::from)
        })
    }
}

/// Runs `server` on a background thread; the thread exits when every
/// client clone is dropped. Returns the connected client.
pub fn spawn_server(mut server: RpcServer) -> RpcClient {
    let (req_tx, req_rx) = unbounded::<String>();
    let (resp_tx, resp_rx) = unbounded::<String>();
    std::thread::spawn(move || {
        while let Ok(request) = req_rx.recv() {
            let response = server.serve(&request);
            if resp_tx.send(response).is_err() {
                break;
            }
        }
    });
    RpcClient {
        tx: req_tx,
        rx: resp_rx,
        call_lock: Arc::new(std::sync::Mutex::new(())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorRegistry, Version};
    use crate::error::Error;
    use faults::FaultSpec;

    #[test]
    fn request_wire_format_round_trips() {
        let inputs = vec![
            FeatureValue::url("http://ausopen.org/video7.mpg"),
            FeatureValue::Int(12),
            FeatureValue::Flt(1.5),
        ];
        let xml = encode_request("tennis", &inputs);
        let (name, back) = decode_request(&xml).unwrap();
        assert_eq!(name, "tennis");
        assert_eq!(back, inputs);
    }

    #[test]
    fn response_wire_format_round_trips() {
        let tokens = vec![
            Token::new("frameNo", 0i64),
            Token::new("yPos", 150.0f64),
            Token::new("primary", "video"),
        ];
        let xml = encode_response(&Ok(tokens.clone()));
        assert_eq!(decode_response(&xml).unwrap(), tokens);
    }

    #[test]
    fn fault_round_trips_preserving_its_kind() {
        let reject = encode_response(&Err(DetectorError::Reject("cannot reach camera".into())));
        assert_eq!(
            decode_response(&reject).unwrap_err(),
            WireError::Remote(DetectorError::Reject("cannot reach camera".into()))
        );
        let unavail =
            encode_response(&Err(DetectorError::Unavailable("worker crashed".into())));
        assert_eq!(
            decode_response(&unavail).unwrap_err(),
            WireError::Remote(DetectorError::Unavailable("worker crashed".into()))
        );
    }

    #[test]
    fn garbage_bytes_are_a_decode_error() {
        assert!(matches!(
            decode_response("<<corrupted response>>"),
            Err(WireError::Decode(_))
        ));
        assert!(matches!(
            decode_request("not xml at all"),
            Err(WireError::Decode(_))
        ));
    }

    #[test]
    fn server_dispatches_and_reports_unknown_methods() {
        let mut server = RpcServer::new();
        server.handle(
            "segment",
            Box::new(|inputs| {
                assert_eq!(inputs.len(), 1);
                Ok(vec![Token::new("frameNo", 0i64)])
            }),
        );
        let ok = server.serve(&encode_request("segment", &[FeatureValue::url("u")]));
        assert_eq!(decode_response(&ok).unwrap().len(), 1);
        let missing = server.serve(&encode_request("ghost", &[]));
        match decode_response(&missing).unwrap_err() {
            WireError::Remote(DetectorError::Unavailable(msg)) => {
                assert!(msg.contains("ghost"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spawned_server_serves_over_the_wire() {
        let mut server = RpcServer::new();
        server.handle(
            "double",
            Box::new(|inputs| {
                let x = inputs[0].as_f64().ok_or("not numeric")?;
                Ok(vec![Token::new("out", x * 2.0)])
            }),
        );
        let client = spawn_server(server);
        let out = client.call("double", &[FeatureValue::Flt(21.0)]).unwrap();
        assert_eq!(out[0].value, FeatureValue::Flt(42.0));
    }

    #[test]
    fn rpc_detector_registers_like_a_linked_one() {
        let mut server = RpcServer::new();
        server.handle(
            "segment",
            Box::new(|_| Ok(vec![Token::new("frameNo", 7i64)])),
        );
        let client = spawn_server(server);
        let mut registry = DetectorRegistry::new();
        registry.register("segment", Version::new(1, 0, 0), client.as_detector("segment"));
        let out = registry
            .run("segment", &[FeatureValue::url("http://x")])
            .unwrap();
        assert_eq!(out[0].value, FeatureValue::Int(7));
    }

    #[test]
    fn injected_faults_surface_as_unavailable() {
        let plan = FaultPlan::seeded(11)
            .with_script(
                "rpc:echo",
                vec![
                    faults::FaultAction::Error,
                    faults::FaultAction::Garbage,
                    faults::FaultAction::None,
                ],
            )
            .shared();
        let mut server = RpcServer::new().with_fault_plan(Arc::clone(&plan));
        server.handle("echo", Box::new(|_| Ok(vec![Token::new("x", 1i64)])));
        let client = spawn_server(server);
        let mut registry = DetectorRegistry::new();
        registry.register("echo", Version::new(1, 0, 0), client.as_detector("echo"));

        // Call 1: injected transport error.
        match registry.run("echo", &[]) {
            Err(Error::DetectorUnavailable { name, cause }) => {
                assert_eq!(name, "echo");
                assert!(cause.contains("injected"), "{cause}");
            }
            other => panic!("{other:?}"),
        }
        // Call 2: garbage response fails to decode.
        match registry.run("echo", &[]) {
            Err(Error::DetectorUnavailable { cause, .. }) => {
                assert!(cause.contains("decode"), "{cause}");
            }
            other => panic!("{other:?}"),
        }
        // Call 3: healthy again.
        assert_eq!(registry.run("echo", &[]).unwrap().len(), 1);
        assert_eq!(plan.calls("rpc:echo"), 3);
    }

    #[test]
    fn zero_fault_plan_is_transparent() {
        let plan = FaultPlan::seeded(5)
            .with_site("rpc:echo", FaultSpec::none())
            .shared();
        let mut server = RpcServer::new().with_fault_plan(plan);
        server.handle("echo", Box::new(|_| Ok(vec![Token::new("x", 1i64)])));
        let client = spawn_server(server);
        for _ in 0..20 {
            assert_eq!(client.call("echo", &[]).unwrap().len(), 1);
        }
    }

    #[test]
    fn empty_token_list_round_trips() {
        let xml = encode_response(&Ok(vec![]));
        assert_eq!(decode_response(&xml).unwrap(), vec![]);
    }
}
