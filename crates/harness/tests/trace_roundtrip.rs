//! Regression: a JSONL trace containing a *non-finite* sample must still
//! be a valid JSON document per line (non-finite encodes as `null`), and
//! the downgrade counter must record each one.

use btfluid_telemetry::{read_trace, Counters, Json, Sample, ScratchDir, TraceSink};

#[test]
fn trace_with_non_finite_sample_round_trips_as_valid_json() {
    let dir = ScratchDir::new("trace-nan-roundtrip").unwrap();
    let path = dir.join("t.jsonl");

    let before = btfluid_telemetry::non_finite_null_count();
    let mut sink = TraceSink::create(&path).unwrap();
    sink.meta(&[
        ("scheme", Json::Str("MTCD".into())),
        ("sample_every", Json::num_f64(f64::NAN)),
    ]);
    // A sample whose adapt means blew up to NaN/∞ — the failure mode this
    // guards against is the sink writing literal `NaN` and breaking every
    // later `btfluid inspect` of the file.
    sink.sample(&Sample {
        t: 10.0,
        events: 123,
        downloaders: &[4, 2],
        download_pairs: &[4, 2],
        seed_pairs: &[1, 1],
        weight: &[1.0, f64::INFINITY],
        pool_real: &[0.5, f64::NAN],
        pool_virtual: &[0.0, 0.0],
        rho_mean: f64::NAN,
        delta_mean: f64::NEG_INFINITY,
        counters: Counters::default(),
    });
    sink.end(10.0, &Counters::default());
    let final_path = sink.finish().unwrap();

    let text = std::fs::read_to_string(&final_path).unwrap();
    assert!(text.contains("\"rho_mean\":null"), "{text}");
    // The reader parses every line as JSON, so this fails on a literal NaN.
    let runs = read_trace(&text).unwrap_or_else(|e| panic!("invalid trace line {e}"));
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    assert_eq!(run.samples.len(), 1, "sample record not found");
    assert!(run.end.is_some(), "end record not found");
    let sample = &run.samples[0];
    assert_eq!((sample.rho_mean, sample.delta_mean), (None, None));
    assert_eq!(sample.weight, vec![Some(1.0), None]);
    assert_eq!(sample.pool_real, vec![Some(0.5), None]);
    // One meta field and four sample fields were non-finite; the count
    // is this thread's, so nothing running beside the test adds to it.
    assert_eq!(
        btfluid_telemetry::non_finite_null_count() - before,
        5,
        "every non-finite downgrade is counted once"
    );
}
