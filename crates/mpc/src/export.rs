//! Trace exporters: JSON Lines and Chrome `trace_event`.
//!
//! Both exporters are pure functions from a borrowed [`Recorder`] to a
//! `String`, with hand-written serialization in a fixed field order —
//! no maps, no float formatting, no wall time — so a fixed-seed run
//! exports byte-identical output on every invocation (asserted by
//! `tests/trace_golden.rs`). Writing the string to disk is the
//! caller's business (`core`'s CLI, `bench`'s table writer); this
//! crate performs no I/O.

use crate::event::TraceEvent;
use crate::recorder::Recorder;

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                for shift in [4, 0] {
                    let d = (b >> shift) & 0xf;
                    out.push(char::from_digit(d, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

fn push_usize_list(out: &mut String, items: &[usize]) {
    out.push('[');
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Export the retained events as JSON Lines: one self-describing
/// object per line, tagged with its logical sequence number `seq`
/// (the recorder's event clock; the first retained event's `seq` is
/// [`Recorder::dropped`]).
pub fn jsonl(rec: &Recorder) -> String {
    let mut out = String::new();
    for (i, ev) in rec.events().enumerate() {
        let seq = rec.dropped() + i as u64;
        out.push_str("{\"seq\":");
        out.push_str(&seq.to_string());
        match ev {
            TraceEvent::RoundBegin { round, servers } => {
                out.push_str(&format!(
                    ",\"ev\":\"round_begin\",\"round\":{round},\"servers\":{servers}"
                ));
            }
            TraceEvent::Topology { round, dims } => {
                out.push_str(&format!(",\"ev\":\"topology\",\"round\":{round},\"dims\":"));
                push_usize_list(&mut out, dims);
            }
            TraceEvent::Send {
                round,
                server,
                msgs,
                words,
            } => {
                out.push_str(&format!(
                    ",\"ev\":\"send\",\"round\":{round},\"server\":{server},\"msgs\":{msgs},\"words\":{words}"
                ));
            }
            TraceEvent::Recv {
                round,
                server,
                tuples,
                words,
            } => {
                out.push_str(&format!(
                    ",\"ev\":\"recv\",\"round\":{round},\"server\":{server},\"tuples\":{tuples},\"words\":{words}"
                ));
            }
            TraceEvent::RoundEnd {
                round,
                tuples,
                words,
            } => {
                out.push_str(&format!(
                    ",\"ev\":\"round_end\",\"round\":{round},\"tuples\":{tuples},\"words\":{words}"
                ));
            }
            TraceEvent::FaultInjected {
                round,
                server,
                kind,
            } => {
                out.push_str(&format!(
                    ",\"ev\":\"fault_injected\",\"round\":{round},\"server\":{server},\"kind\":\"{kind}\""
                ));
            }
            TraceEvent::RecoveryBegin {
                round,
                server,
                strategy,
            } => {
                out.push_str(&format!(
                    ",\"ev\":\"recovery_begin\",\"round\":{round},\"server\":{server},\"strategy\":\"{strategy}\""
                ));
            }
            TraceEvent::RecoveryEnd {
                round,
                server,
                rounds,
                tuples,
                words,
            } => {
                out.push_str(&format!(
                    ",\"ev\":\"recovery_end\",\"round\":{round},\"server\":{server},\"rounds\":{rounds},\"tuples\":{tuples},\"words\":{words}"
                ));
            }
            TraceEvent::SpanBegin { label } => {
                out.push_str(",\"ev\":\"span_begin\",\"label\":\"");
                escape_into(&mut out, label);
                out.push('"');
            }
            TraceEvent::SpanEnd { label } => {
                out.push_str(",\"ev\":\"span_end\",\"label\":\"");
                escape_into(&mut out, label);
                out.push('"');
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Export the retained events in Chrome `trace_event` JSON (the
/// format `about://tracing` and [Perfetto](https://ui.perfetto.dev)
/// load directly).
///
/// Mapping, with the logical `seq` as the microsecond timestamp:
///
/// * rounds → duration begin/end pairs (`ph:"B"`/`"E"`) on `tid` 0;
/// * spans → duration pairs on `tid` 1;
/// * grid topology → an instant event (`ph:"i"`) on `tid` 0;
/// * per-server receive load and send fan-out → counter events
///   (`ph:"C"`) named `recv.s<rank>` / `send.s<rank>`, which Perfetto
///   renders as one counter track per server.
pub fn chrome_trace(rec: &Recorder) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (i, ev) in rec.events().enumerate() {
        let ts = rec.dropped() + i as u64;
        let mut line = String::new();
        match ev {
            TraceEvent::RoundBegin { round, servers } => {
                line.push_str(&format!(
                    "{{\"name\":\"round {round}\",\"cat\":\"round\",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":{{\"servers\":{servers}}}}}"
                ));
            }
            TraceEvent::RoundEnd {
                round,
                tuples,
                words,
            } => {
                line.push_str(&format!(
                    "{{\"name\":\"round {round}\",\"cat\":\"round\",\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":{{\"tuples\":{tuples},\"words\":{words}}}}}"
                ));
            }
            TraceEvent::Topology { round, dims } => {
                let shape = dims
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("x");
                line.push_str(&format!(
                    "{{\"name\":\"grid {shape}\",\"cat\":\"topology\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"s\":\"p\",\"args\":{{\"round\":{round}}}}}"
                ));
            }
            TraceEvent::Send {
                round: _,
                server,
                msgs,
                words,
            } => {
                line.push_str(&format!(
                    "{{\"name\":\"send.s{server}\",\"cat\":\"send\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"args\":{{\"msgs\":{msgs},\"words\":{words}}}}}"
                ));
            }
            TraceEvent::Recv {
                round: _,
                server,
                tuples,
                words,
            } => {
                line.push_str(&format!(
                    "{{\"name\":\"recv.s{server}\",\"cat\":\"recv\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"args\":{{\"tuples\":{tuples},\"words\":{words}}}}}"
                ));
            }
            TraceEvent::FaultInjected {
                round,
                server,
                kind,
            } => {
                line.push_str(&format!(
                    "{{\"name\":\"fault {kind} s{server}\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":2,\"s\":\"p\",\"args\":{{\"round\":{round}}}}}"
                ));
            }
            TraceEvent::RecoveryBegin {
                round,
                server,
                strategy,
            } => {
                line.push_str(&format!(
                    "{{\"name\":\"recover {strategy} s{server}\",\"cat\":\"fault\",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":2,\"args\":{{\"round\":{round}}}}}"
                ));
            }
            TraceEvent::RecoveryEnd {
                round,
                server,
                rounds,
                tuples,
                words,
            } => {
                line.push_str(&format!(
                    "{{\"name\":\"recover s{server}\",\"cat\":\"fault\",\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":2,\"args\":{{\"round\":{round},\"rounds\":{rounds},\"tuples\":{tuples},\"words\":{words}}}}}"
                ));
            }
            TraceEvent::SpanBegin { label } => {
                line.push_str("{\"name\":\"");
                escape_into(&mut line, label);
                line.push_str(&format!(
                    "\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":1}}"
                ));
            }
            TraceEvent::SpanEnd { label } => {
                line.push_str("{\"name\":\"");
                escape_into(&mut line, label);
                line.push_str(&format!(
                    "\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":1}}"
                ));
            }
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceSink;

    fn sample() -> Recorder {
        let mut r = Recorder::new();
        r.record(TraceEvent::SpanBegin { label: "t/\"q\"" });
        r.record(TraceEvent::RoundBegin {
            round: 0,
            servers: 2,
        });
        r.record(TraceEvent::Topology {
            round: 0,
            dims: vec![2, 3],
        });
        r.record(TraceEvent::Send {
            round: 0,
            server: 1,
            msgs: 4,
            words: 8,
        });
        r.record(TraceEvent::Recv {
            round: 0,
            server: 0,
            tuples: 4,
            words: 8,
        });
        r.record(TraceEvent::RoundEnd {
            round: 0,
            tuples: 4,
            words: 8,
        });
        r.record(TraceEvent::FaultInjected {
            round: 0,
            server: 1,
            kind: "crash",
        });
        r.record(TraceEvent::RecoveryBegin {
            round: 0,
            server: 1,
            strategy: "checkpoint",
        });
        r.record(TraceEvent::RecoveryEnd {
            round: 1,
            server: 1,
            rounds: 1,
            tuples: 4,
            words: 8,
        });
        r.record(TraceEvent::SpanEnd { label: "t/\"q\"" });
        r
    }

    #[test]
    fn jsonl_one_line_per_event_with_seq() {
        let text = jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines[0].starts_with("{\"seq\":0,\"ev\":\"span_begin\""));
        assert!(lines[0].contains("t/\\\"q\\\""), "labels are escaped");
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"ev\":\"round_begin\",\"round\":0,\"servers\":2}"
        );
        assert_eq!(
            lines[2],
            "{\"seq\":2,\"ev\":\"topology\",\"round\":0,\"dims\":[2,3]}"
        );
        assert_eq!(
            lines[4],
            "{\"seq\":4,\"ev\":\"recv\",\"round\":0,\"server\":0,\"tuples\":4,\"words\":8}"
        );
        assert_eq!(
            lines[6],
            "{\"seq\":6,\"ev\":\"fault_injected\",\"round\":0,\"server\":1,\"kind\":\"crash\"}"
        );
        assert_eq!(
            lines[7],
            "{\"seq\":7,\"ev\":\"recovery_begin\",\"round\":0,\"server\":1,\"strategy\":\"checkpoint\"}"
        );
        assert_eq!(
            lines[8],
            "{\"seq\":8,\"ev\":\"recovery_end\",\"round\":1,\"server\":1,\"rounds\":1,\"tuples\":4,\"words\":8}"
        );
    }

    #[test]
    fn jsonl_seq_starts_at_dropped() {
        let mut r = Recorder::with_capacity(1);
        r.record(TraceEvent::SpanBegin { label: "a" });
        r.record(TraceEvent::SpanEnd { label: "a" });
        let text = jsonl(&r);
        assert!(text.starts_with("{\"seq\":1,"), "got: {text}");
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let text = chrome_trace(&sample());
        assert!(text.starts_with("{\"traceEvents\":[\n"));
        assert!(text.ends_with("\n],\"displayTimeUnit\":\"ms\"}\n"));
        // Durations must come in B/E pairs.
        assert_eq!(
            text.matches("\"ph\":\"B\"").count(),
            text.matches("\"ph\":\"E\"").count()
        );
        // Counter events carry no tid (one track per counter name).
        assert!(text.contains("\"name\":\"recv.s0\""));
        assert!(text.contains("\"name\":\"grid 2x3\""));
        // Fault markers land on their own thread lane.
        assert!(text.contains("\"name\":\"fault crash s1\""));
        assert!(text.contains("\"name\":\"recover checkpoint s1\",\"cat\":\"fault\",\"ph\":\"B\""));
    }

    #[test]
    fn exports_are_reproducible() {
        let a = sample();
        let b = sample();
        assert_eq!(jsonl(&a), jsonl(&b));
        assert_eq!(chrome_trace(&a), chrome_trace(&b));
    }

    #[test]
    fn escape_handles_control_chars() {
        let mut s = String::new();
        escape_into(&mut s, "a\x01b\nc");
        assert_eq!(s, "a\\u0001b\\nc");
    }
}
