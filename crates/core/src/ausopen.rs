//! The running example, fully wired: the Australian Open search engine.
//!
//! This module is the paper's "developer" role made concrete — it models
//! the three levels for the tennis domain:
//!
//! * the **webspace schema** of Figure 3
//!   ([`webspace::paper::ausopen_schema`]),
//! * the **re-engineering template rules** mapping the site's
//!   presentation markup back to concepts (the "special purpose feature
//!   grammar" for the HTML),
//! * the **media feature grammar** — Figures 6–7 plus the audio branch
//!   ([`feagram::paper::MEDIA_GRAMMAR`]),
//! * the **detector implementations** binding the grammar to the COBRA
//!   pipelines: `header` reads MIME types off the (simulated) server,
//!   `segment` runs shot segmentation + classification, `tennis` runs
//!   player tracking and shape-feature extraction, `interview` runs the
//!   audio segmentation and speaker-turn analysis. The `netplay` and
//!   `isInterview` whiteboxes need no implementation — their predicates
//!   live in the grammar.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use acoi::{DetectorRegistry, Token, Version};
use cobra::audio::{count_turns, segment_audio, speech_ratio};
use cobra::{classify_video, track_player, ShotClass, Video};
use websim::Site;
use webspace::{MediaType, Retriever, TemplateRule};
use webspace::retriever::{AttrKind, AttrRule, LinkRule, Selector};

use crate::engine::{Engine, EngineConfig};
use crate::error::Result;

/// The [`EngineConfig`] behind [`engine`], exposed on its own so a
/// durable engine can be reopened against the same model
/// ([`Engine::open`] consumes a config per call).
pub fn config(site: Arc<Site>) -> EngineConfig {
    EngineConfig {
        schema: webspace::paper::ausopen_schema(),
        retriever: retriever(),
        grammar_source: feagram::paper::MEDIA_GRAMMAR.to_owned(),
        registry: detectors(site),
        text_servers: 1,
        text_replicas: 0,
        faults: None,
    }
}

/// Builds the complete Australian Open engine over a (simulated) site.
pub fn engine(site: Arc<Site>) -> Result<Engine> {
    Engine::new(config(site))
}

/// Builds the engine as deployed against an unreliable world: the media
/// detectors run out of process behind the XML-RPC wire (with the fault
/// plan injecting at `rpc:<name>`), every remote call is supervised
/// (deadline, retries, circuit breaker), and full text is spread over
/// `text_servers` shared-nothing servers (the plan injecting at
/// `shard:<i>`). With a zero-fault plan the answers are identical to
/// [`engine`]'s.
pub fn resilient_engine(
    site: Arc<Site>,
    text_servers: usize,
    plan: Arc<faults::FaultPlan>,
) -> Result<Engine> {
    Engine::new(EngineConfig {
        schema: webspace::paper::ausopen_schema(),
        retriever: retriever(),
        grammar_source: feagram::paper::MEDIA_GRAMMAR.to_owned(),
        registry: supervised_detectors(site, Arc::clone(&plan)),
        text_servers,
        text_replicas: 0,
        faults: Some(plan),
    })
}

/// The template rules for the Australian Open site's page layouts.
pub fn retriever() -> Retriever {
    Retriever::new("AustralianOpen")
        .rule(TemplateRule {
            class: "Player".into(),
            page_class: "bio-page".into(),
            id_prefix: "player:".into(),
            attrs: vec![
                AttrRule {
                    attr: "name".into(),
                    selector: Selector::text("h1", "player-name"),
                    kind: AttrKind::Text,
                },
                AttrRule {
                    attr: "gender".into(),
                    selector: Selector::text("td", "gender"),
                    kind: AttrKind::Text,
                },
                AttrRule {
                    attr: "country".into(),
                    selector: Selector::text("td", "country"),
                    kind: AttrKind::Text,
                },
                AttrRule {
                    attr: "hand".into(),
                    selector: Selector::text("td", "hand"),
                    kind: AttrKind::Text,
                },
                AttrRule {
                    attr: "picture".into(),
                    selector: Selector::attr("img", "portrait", "src"),
                    kind: AttrKind::Media(MediaType::Image),
                },
                AttrRule {
                    attr: "history".into(),
                    selector: Selector::text("div", "history"),
                    kind: AttrKind::Text,
                },
            ],
            links: vec![LinkRule {
                association: "Is_covered_in".into(),
                selector: Selector::attr("a", "profile-link", "href"),
            }],
        })
        .rule(TemplateRule {
            class: "Profile".into(),
            page_class: "profile-page".into(),
            id_prefix: "profile:".into(),
            attrs: vec![
                AttrRule {
                    attr: "video".into(),
                    selector: Selector::attr("a", "match-video", "href"),
                    kind: AttrKind::Media(MediaType::Video),
                },
                AttrRule {
                    attr: "interview".into(),
                    selector: Selector::attr("a", "interview-audio", "href"),
                    kind: AttrKind::Media(MediaType::Audio),
                },
            ],
            links: vec![],
        })
        .rule(TemplateRule {
            class: "Article".into(),
            page_class: "article-page".into(),
            id_prefix: "article:".into(),
            attrs: vec![
                AttrRule {
                    attr: "title".into(),
                    selector: Selector::text("h1", "headline"),
                    kind: AttrKind::Text,
                },
                AttrRule {
                    attr: "body".into(),
                    selector: Selector::text("div", "story"),
                    kind: AttrKind::Text,
                },
            ],
            links: vec![LinkRule {
                association: "About".into(),
                selector: Selector::attr("a", "about-player", "href"),
            }],
        })
}

/// Registers the three blackbox detectors of the video grammar against
/// the simulated site. Analysed videos are cached so `segment` and
/// `tennis` share one decoded copy per location.
pub fn detectors(site: Arc<Site>) -> DetectorRegistry {
    let mut registry = DetectorRegistry::new();
    for (name, f) in detector_impls(site) {
        registry.register(name, Version::new(1, 0, 0), f);
    }
    registry
}

/// The detector registry as deployed against an unreliable world: the
/// media detectors (`segment`, `tennis`, `interview`) run behind the
/// XML-RPC wire on a server that consults `plan` (labels `rpc:<name>`),
/// and every remote call is supervised — per-call deadline, bounded
/// retries with backoff, circuit breaker. `header` (cheap, local MIME
/// sniffing) stays linked. With a zero-fault plan this registry answers
/// exactly like [`detectors`].
pub fn supervised_detectors(site: Arc<Site>, plan: Arc<faults::FaultPlan>) -> DetectorRegistry {
    let supervisor = acoi::Supervisor::new(acoi::SupervisorConfig::default());
    let mut registry = DetectorRegistry::new();
    let mut server = acoi::RpcServer::new().with_fault_plan(plan);
    for (name, f) in detector_impls(site) {
        if name == "header" {
            registry.register(name, Version::new(1, 0, 0), f);
        } else {
            server.handle(name, f);
        }
    }
    let client = acoi::external::spawn_server(server);
    for name in ["segment", "tennis", "interview"] {
        registry.register(
            name,
            Version::new(1, 0, 0),
            supervisor.wrap(name, client.as_detector(name)),
        );
    }
    registry
}

/// Builds an engine whose media detectors fail deterministically per
/// *document*: outages are drawn with
/// [`faults::FaultPlan::decide_keyed`] on the media location, so the
/// same documents degrade no matter how populate schedules the
/// analyses — the fixture for exercising degraded ingestion under the
/// parallel pipeline. Text serving stays fault-free (and cacheable).
pub fn flaky_engine(site: Arc<Site>, plan: Arc<faults::FaultPlan>) -> Result<Engine> {
    Engine::new(EngineConfig {
        schema: webspace::paper::ausopen_schema(),
        retriever: retriever(),
        grammar_source: feagram::paper::MEDIA_GRAMMAR.to_owned(),
        registry: flaky_detectors(site, plan),
        text_servers: 1,
        text_replicas: 0,
        faults: None,
    })
}

/// The detector registry with per-document keyed fault injection: the
/// media detectors (`segment`, `tennis`, `interview`) consult
/// `plan.decide_keyed("det:<name>", <location>)` before running, and
/// any injected action surfaces as [`acoi::DetectorError::Unavailable`]
/// — the failure mode that leaves rejected-with-cause holes in the
/// parse tree instead of aborting it. `header` stays reliable. The
/// keyed draw is a pure function of (seed, detector, location), so two
/// populate runs — whatever their worker counts or scheduling — fail
/// on exactly the same documents.
pub fn flaky_detectors(site: Arc<Site>, plan: Arc<faults::FaultPlan>) -> DetectorRegistry {
    let mut registry = DetectorRegistry::new();
    for (name, f) in detector_impls(site) {
        if name == "header" {
            registry.register(name, Version::new(1, 0, 0), f);
            continue;
        }
        let plan = Arc::clone(&plan);
        let label = format!("det:{name}");
        let flaky: acoi::DetectorFn = Box::new(move |inputs| {
            let key = inputs
                .first()
                .and_then(|v| v.as_str())
                .unwrap_or_default()
                .to_owned();
            if plan.decide_keyed(&label, &key) != faults::FaultAction::None {
                return Err(acoi::DetectorError::Unavailable(format!(
                    "{label}: injected outage for {key}"
                )));
            }
            f(inputs)
        });
        registry.register(name, Version::new(1, 0, 0), flaky);
    }
    registry
}

/// The four detector implementations, shared by the linked and the
/// remote/supervised wirings.
fn detector_impls(site: Arc<Site>) -> Vec<(&'static str, acoi::DetectorFn)> {
    type Cache = Arc<Mutex<HashMap<String, Arc<AnalyzedVideo>>>>;

    struct AnalyzedVideo {
        video: Video,
        classified: Vec<(cobra::Shot, ShotClass)>,
    }

    fn analysed(site: &Site, cache: &Cache, url: &str) -> std::result::Result<Arc<AnalyzedVideo>, String> {
        if let Some(v) = cache.lock().expect("cache lock").get(url) {
            return Ok(Arc::clone(v));
        }
        let spec = site
            .video(url)
            .ok_or_else(|| format!("404: no video at {url}"))?;
        let video = spec.generate();
        let classified = classify_video(&video);
        let entry = Arc::new(AnalyzedVideo { video, classified });
        cache
            .lock()
            .expect("cache lock")
            .insert(url.to_owned(), Arc::clone(&entry));
        Ok(entry)
    }

    let cache: Cache = Arc::new(Mutex::new(HashMap::new()));
    let mut impls: Vec<(&'static str, acoi::DetectorFn)> = Vec::new();

    // header: MIME sniffing over the simulated HTTP server.
    {
        let site = Arc::clone(&site);
        impls.push((
            "header",
            Box::new(move |inputs| {
                let url = inputs[0].as_str().ok_or("header: no location")?;
                let (primary, secondary) = site.mime(url);
                Ok(vec![
                    Token::new("primary", primary),
                    Token::new("secondary", secondary),
                ])
            }),
        ));
    }

    // segment: shot segmentation + classification (one combined
    // algorithm, as in the paper).
    {
        let site = Arc::clone(&site);
        let cache = Arc::clone(&cache);
        impls.push((
            "segment",
            Box::new(move |inputs| {
                let url = inputs[0].as_str().ok_or("segment: no location")?;
                let analysed = analysed(&site, &cache, url)?;
                let mut tokens = Vec::new();
                for (shot, class) in &analysed.classified {
                    tokens.push(Token::new("frameNo", shot.begin as i64));
                    tokens.push(Token::new("frameNo", shot.end as i64));
                    tokens.push(Token::new(
                        "type",
                        // The grammar's `type` alternatives are
                        // "tennis" and "other" (Figure 7); close-ups and
                        // audience shots take the "other" branch.
                        if *class == ShotClass::Tennis {
                            "tennis"
                        } else {
                            "other"
                        },
                    ));
                }
                Ok(tokens)
            }),
        ));
    }

    // tennis: player segmentation, tracking and shape features for one
    // court shot.
    {
        let site = Arc::clone(&site);
        let cache = Arc::clone(&cache);
        impls.push((
            "tennis",
            Box::new(move |inputs| {
                let url = inputs[0].as_str().ok_or("tennis: no location")?;
                let begin = inputs[1].as_f64().ok_or("tennis: no begin")? as usize;
                let end = inputs[2].as_f64().ok_or("tennis: no end")? as usize;
                let analysed = analysed(&site, &cache, url)?;
                let shot = cobra::Shot {
                    begin,
                    end,
                    dominant: 0,
                    skin: 0.0,
                    entropy: 0.0,
                    variance: 0.0,
                };
                let mut tokens = Vec::new();
                for obs in track_player(&analysed.video, &shot) {
                    tokens.push(Token::new("frameNo", obs.frame as i64));
                    tokens.push(Token::new("xPos", obs.x));
                    tokens.push(Token::new("yPos", obs.y));
                    tokens.push(Token::new("Area", obs.area.round() as i64));
                    tokens.push(Token::new("Ecc", obs.eccentricity));
                    tokens.push(Token::new("Orient", obs.orientation));
                }
                Ok(tokens)
            }),
        ));
    }

    // interview: audio segmentation + speaker-turn analysis.
    {
        let site = Arc::clone(&site);
        impls.push((
            "interview",
            Box::new(move |inputs| {
                let url = inputs[0].as_str().ok_or("interview: no location")?;
                let clip = site
                    .audio(url)
                    .ok_or_else(|| format!("404: no audio at {url}"))?;
                let segments = segment_audio(clip);
                Ok(vec![
                    Token::new("speechRatio", speech_ratio(&segments)),
                    Token::new("turnCount", count_turns(clip, &segments, 20.0) as i64),
                ])
            }),
        ));
    }

    impls
}

#[cfg(test)]
mod tests {
    use super::*;
    use websim::SiteSpec;

    #[test]
    fn engine_builds_from_the_paper_artifacts() {
        let site = Arc::new(Site::generate(SiteSpec::default()));
        let engine = engine(site).unwrap();
        assert_eq!(engine.schema().name(), "AustralianOpen");
        assert_eq!(engine.grammar().start().symbol, "MMO");
    }

    #[test]
    fn detectors_serve_the_video_grammar() {
        let site = Arc::new(Site::generate(SiteSpec {
            players: 2,
            articles: 2,
            seed: 8,
        }));
        let registry = detectors(Arc::clone(&site));
        let video_url = site.players[0].video_url.clone();
        let out = registry
            .run("header", &[feagram::FeatureValue::url(video_url.clone())])
            .unwrap();
        assert_eq!(out[0].value.as_str(), Some("video"));
        let shots = registry
            .run("segment", &[feagram::FeatureValue::url(video_url)])
            .unwrap();
        // 8 shots × 3 tokens each.
        assert_eq!(shots.len(), 24);
    }

    #[test]
    fn segment_fails_on_missing_video() {
        let site = Arc::new(Site::generate(SiteSpec::default()));
        let registry = detectors(site);
        let err = registry
            .run("segment", &[feagram::FeatureValue::url("http://nowhere/x.mpg")])
            .unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
    }
}
