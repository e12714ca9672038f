//! Integration tests for the tooling layers: the byte container, the
//! Chrome-trace exporter, and the alternative G-PCC attribute transform.

use pcc::core::{container, Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{trace, Device, PowerMode};
use pcc::raht::{predicting_forward, predicting_inverse};

fn device() -> Device {
    Device::jetson_agx_xavier(PowerMode::W15)
}

#[test]
fn container_survives_a_file_round_trip() {
    let video = catalog::by_name("Soldier").unwrap().generate_scaled(3, 1_000);
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV2);
    let encoded = codec.encode_video(&video, 7, &d);
    let bytes = container::mux(&encoded);

    let dir = std::env::temp_dir().join("pcc_container_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.pccv");
    std::fs::write(&path, &bytes).unwrap();
    let read_back = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let demuxed = container::demux(&read_back).unwrap();
    assert_eq!(demuxed.design, Design::IntraInterV2);
    let decoded = codec.decode_video(&demuxed, &d).unwrap();
    assert_eq!(decoded.len(), video.len());
    // Reuse statistics survive the container.
    let reuse: Vec<_> = demuxed.frames.iter().filter_map(|f| f.reuse_fraction()).collect();
    assert_eq!(reuse.len(), 2, "two P-frames in IPP over 3 frames");
}

#[test]
fn traces_cover_all_designs() {
    let video = catalog::by_name("Loot").unwrap().generate_scaled(1, 800);
    let d = device();
    for design in Design::ALL {
        let encoded = PccCodec::new(design).encode_video(&video, 7, &d);
        let json = trace::to_chrome_trace(&encoded.encode_timelines[0]);
        assert!(json.contains("traceEvents"), "{design}");
        assert!(json.matches("\"ph\":\"X\"").count() >= 3, "{design} has too few events");
        // Events must carry the model's energy annotations.
        assert!(json.contains("energy_mj"), "{design}");
    }
}

/// A minimal JSON syntax checker — enough to prove the trace exporter
/// emits well-formed JSON without pulling in a parser dependency.
/// Returns the rest of the input after one complete value.
fn json_value(s: &[u8]) -> Result<&[u8], String> {
    let s = skip_ws(s);
    match s.first() {
        Some(b'{') => {
            let mut s = skip_ws(&s[1..]);
            if s.first() == Some(&b'}') {
                return Ok(&s[1..]);
            }
            loop {
                s = json_string(skip_ws(s))?;
                s = skip_ws(s);
                if s.first() != Some(&b':') {
                    return Err("expected ':' in object".into());
                }
                s = json_value(&s[1..])?;
                s = skip_ws(s);
                match s.first() {
                    Some(b',') => s = &s[1..],
                    Some(b'}') => return Ok(&s[1..]),
                    _ => return Err("expected ',' or '}' in object".into()),
                }
            }
        }
        Some(b'[') => {
            let mut s = skip_ws(&s[1..]);
            if s.first() == Some(&b']') {
                return Ok(&s[1..]);
            }
            loop {
                s = json_value(s)?;
                s = skip_ws(s);
                match s.first() {
                    Some(b',') => s = &s[1..],
                    Some(b']') => return Ok(&s[1..]),
                    _ => return Err("expected ',' or ']' in array".into()),
                }
            }
        }
        Some(b'"') => json_string(s),
        Some(b't') => s.strip_prefix(b"true" as &[u8]).ok_or("bad literal".into()),
        Some(b'f') => s.strip_prefix(b"false" as &[u8]).ok_or("bad literal".into()),
        Some(b'n') => s.strip_prefix(b"null" as &[u8]).ok_or("bad literal".into()),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let end = s
                .iter()
                .position(|&b| !(b.is_ascii_digit() || b"+-.eE".contains(&b)))
                .unwrap_or(s.len());
            if end == 0 {
                Err("empty number".into())
            } else {
                Ok(&s[end..])
            }
        }
        other => Err(format!("unexpected token {other:?}")),
    }
}

fn json_string(s: &[u8]) -> Result<&[u8], String> {
    if s.first() != Some(&b'"') {
        return Err("expected string".into());
    }
    let mut i = 1;
    while i < s.len() {
        match s[i] {
            b'\\' => i += 2,
            b'"' => return Ok(&s[i + 1..]),
            _ => i += 1,
        }
    }
    Err("unterminated string".into())
}

fn skip_ws(s: &[u8]) -> &[u8] {
    let n = s.iter().take_while(|b| b" \t\r\n".contains(b)).count();
    &s[n..]
}

fn assert_parses_as_json(json: &str) {
    let rest = json_value(json.as_bytes()).unwrap_or_else(|e| panic!("invalid JSON: {e}"));
    assert!(skip_ws(rest).is_empty(), "trailing garbage after JSON value");
}

#[test]
fn measured_trace_covers_the_instrumented_pipeline() {
    // An end-to-end encode+decode with probes recording must leave a
    // span for every instrumented pipeline stage, and the Chrome-trace
    // export of those spans must be well-formed JSON.
    let video = catalog::by_name("Redandblack").unwrap().generate_scaled(2, 2_000);
    let d = device();
    let was_enabled = pcc::probe::enabled();
    pcc::probe::set_enabled(true);
    let _ = pcc::probe::take_report(); // drop spans from earlier tests
    let codec = PccCodec::new(Design::IntraInterV1);
    let encoded = codec.encode_video(&video, 7, &d);
    codec.decode_video(&encoded, &d).unwrap();
    let report = pcc::probe::take_report();
    pcc::probe::set_enabled(was_enabled);

    let expected = [
        "morton/codegen",
        "morton/radix_sort",
        "octree/compact",
        "octree/occupancy",
        "intra/gather",
        "intra/layer_encode",
        "intra/layer_decode",
        "inter/match",
        "inter/delta",
        "frame/encode",
        "frame/voxelize",
        "frame/decode",
        "geometry/decode",
    ];
    for stage in expected {
        assert!(
            report.stage(stage).is_some_and(|s| s.calls >= 1),
            "no span recorded for stage {stage}"
        );
    }
    let distinct: std::collections::BTreeSet<_> =
        report.spans().iter().map(|s| s.stage).collect();
    assert!(distinct.len() >= 6, "only {} distinct stages: {distinct:?}", distinct.len());

    let json = trace::spans_to_chrome_trace(report.spans());
    assert_parses_as_json(&json);
    assert!(json.contains("traceEvents"));
    for stage in expected {
        assert!(json.contains(stage), "trace JSON missing stage {stage}");
    }
    // The modeled exporter must emit well-formed JSON too.
    assert_parses_as_json(&trace::to_chrome_trace(&encoded.encode_timelines[0]));
}

#[test]
fn predicting_transform_is_competitive_with_raht_on_real_frames() {
    // The paper's G-PCC background lists three attribute methods; the
    // predicting transform must round-trip and land in the same size
    // ballpark as RAHT on a real synthetic frame.
    let cloud = catalog::by_name("Longdress").unwrap().generator_with_points(4_000).frame_cloud(0);
    let depth = pcc::datasets::density_matched_depth(cloud.len());
    let vox = pcc::types::VoxelizedCloud::from_cloud(&cloud, depth).dedup_mean();
    // Both transforms consume strictly ascending Morton codes.
    let sorted = pcc::morton::sorted_permutation(&vox);
    let gathered = vox.gather(&sorted.payload);
    let codes = sorted.codes;
    let attrs: Vec<[f64; 3]> = gathered.colors().iter().map(|c| c.to_f64()).collect();

    let qstep = 1.0;
    let pred = predicting_forward(&codes, &attrs, qstep);
    let dec = predicting_inverse(&codes, &pred);
    for (a, d) in attrs.iter().zip(&dec) {
        for ch in 0..3 {
            assert!((a[ch] - d[ch]).abs() <= qstep / 2.0 + 1e-9);
        }
    }

    let weights = vec![1.0; codes.len()];
    let raht = pcc::raht::forward(&codes, &attrs, &weights, depth, qstep);
    let ratio = pred.payload_bytes() as f64 / raht.payload_bytes() as f64;
    assert!(
        (0.2..5.0).contains(&ratio),
        "predicting/raht payload ratio {ratio:.2} out of family"
    );
}
