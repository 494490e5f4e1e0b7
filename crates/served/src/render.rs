//! Human rendering of wire responses for `expansectl` output.

use expanse_serve::protocol::ERROR_CODES;
use expanse_serve::{Response, ResponseBody};
use std::fmt::Write;

/// The spec name of an `ERR_*` wire code.
pub(crate) fn err_name(code: u8) -> &'static str {
    (ERROR_CODES.iter())
        .find(|&&(c, _)| c == code)
        .map_or("ERR_UNKNOWN", |&(_, name)| name)
}

/// Render one response as the text `expansectl` prints: an
/// `epoch=… day=…` header line, then the body, one fact per line.
pub fn render(resp: &Response) -> String {
    let mut out = format!("epoch={} day={}\n", resp.epoch, resp.day);
    match &resp.body {
        ResponseBody::Pong { live } => {
            let _ = writeln!(out, "pong live={live}");
        }
        ResponseBody::Record { found: None } => {
            let _ = writeln!(out, "not a member");
        }
        ResponseBody::Record { found: Some(r) } => {
            let _ = writeln!(
                out,
                "{} alive={} sources={:#06x} last_responsive={} protos={:#04x} added_day={} aliased={}",
                r.addr,
                r.alive,
                r.sources.0,
                r.last_responsive
                    .map_or_else(|| "never".to_string(), |d| d.to_string()),
                r.protos.0,
                r.added_day,
                r.aliased
                    .map_or_else(|| "no".to_string(), |p| p.to_string()),
            );
        }
        ResponseBody::Page { addrs, next } => {
            for a in addrs {
                let _ = writeln!(out, "{a}");
            }
            match next {
                Some(c) => {
                    let _ = writeln!(out, "next_cursor={c:#x}");
                }
                None => {
                    let _ = writeln!(out, "exhausted");
                }
            }
        }
        ResponseBody::Sample { addrs } => {
            for a in addrs {
                let _ = writeln!(out, "{a}");
            }
        }
        ResponseBody::Stats { stats } => {
            let _ = writeln!(
                out,
                "members={} live={} responsive={} aliased={}",
                stats.members, stats.live, stats.responsive, stats.aliased
            );
            let _ = writeln!(out, "per_protocol={:?}", stats.per_protocol);
        }
        ResponseBody::Sched { status } => {
            let _ = writeln!(
                out,
                "sched budget={} used={} entries={}",
                status.budget, status.used, status.entries
            );
            for row in &status.top {
                let _ = writeln!(
                    out,
                    "{} kind={} priority={} spent={}",
                    row.net,
                    if row.kind == 1 { "followup" } else { "echo" },
                    row.priority,
                    row.spent
                );
            }
        }
        ResponseBody::Error { code } => {
            let _ = writeln!(out, "error {} ({})", err_name(*code), code);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_have_spec_names() {
        for (code, name) in [
            (1u8, "ERR_MALFORMED"),
            (2, "ERR_OVERLOADED"),
            (3, "ERR_RATE_LIMITED"),
            (4, "ERR_FRAME_TOO_LARGE"),
            (5, "ERR_SHUTTING_DOWN"),
            (6, "ERR_TIMEOUT"),
        ] {
            assert_eq!(err_name(code), name);
        }
        assert_eq!(err_name(200), "ERR_UNKNOWN");
    }

    #[test]
    fn page_renders_cursor_or_exhaustion() {
        let resp = Response {
            epoch: 2,
            day: 9,
            body: ResponseBody::Page {
                addrs: vec!["2001:db8::1".parse().unwrap()],
                next: None,
            },
        };
        let text = render(&resp);
        assert!(text.starts_with("epoch=2 day=9\n"));
        assert!(text.contains("2001:db8::1\n"));
        assert!(text.ends_with("exhausted\n"));
    }
}
