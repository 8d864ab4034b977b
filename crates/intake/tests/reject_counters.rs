//! `intake.rows_rejected_total{cause}` counts each reject under its own
//! cause. This file holds one test, so its process's global registry
//! sees no other rejects.

use dctstream_intake::{RejectCause, RejectLedger};

fn rejected(cause: &str) -> u64 {
    dctstream_obs::global()
        .counter_with("intake.rows_rejected_total", &[("cause", cause)])
        .get()
}

#[test]
fn each_cause_is_counted_under_its_own_label() {
    let mut ledger = RejectLedger::new(4);
    for row in 1..=2 {
        ledger.record(row, RejectCause::BlankLine, b"");
    }
    for row in 3..=5 {
        let cause = RejectCause::WrongArity {
            expected: 2,
            got: 3,
        };
        ledger.record(row, cause, b"a,b,c");
    }
    // A second ledger reuses the same registry counters.
    RejectLedger::new(0).record(6, RejectCause::BlankLine, b" ");
    assert_eq!(rejected("blank-line"), 3);
    assert_eq!(rejected("wrong-arity"), 3);
}
