//! A `run` or `tune` request whose complete tree exceeds the service's node
//! bound is refused before any of the tree is allocated.  This test binary
//! installs a global allocator that counts every byte requested, so the
//! refusals are checked by what they allocate, not by how long they take.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use retreet_lang::corpus;
use retreet_serve::{json, ServeOptions, Service};

/// The system allocator, counting the bytes of every allocation.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the only
// addition is a relaxed counter update, which neither allocates nor touches
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Answers `request` and returns the response with the bytes allocated
/// while answering it.
fn answer(service: &Service, request: &str) -> (String, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let response = service.handle_line(request);
    (response, ALLOCATED.load(Ordering::Relaxed) - before)
}

/// Far below any refused tree: a complete arity-3 tree of height 16 has
/// 21,523,360 nodes, 258 MB of child columns alone.
const REFUSAL_BUDGET: usize = 256 * 1024;

#[test]
fn oversized_trees_are_refused_without_allocating_them() {
    let service = Service::new(&ServeOptions::default());
    let binary = json::escape(corpus::SIZE_COUNTING_SEQUENTIAL_SRC);
    for (kind, arity, height, nodes) in [
        ("run", 3, 16, "21523360"),
        ("run", 8, 16, "40210710958665"),
        ("run", 8, 8, "2396745"),
        ("run", 8, 40, "more than"),
        ("tune", 3, 16, "21523360"),
        ("tune", 8, 16, "40210710958665"),
    ] {
        let request = format!(
            r#"{{"kind": "{kind}", "program": "{binary}", "height": {height}, "arity": {arity}}}"#
        );
        let (response, bytes) = answer(&service, &request);
        let parsed = json::parse(&response).expect("response is valid JSON");
        let fields = parsed.as_object().expect("response is an object");
        assert_eq!(
            fields["code"].as_str(),
            Some("bad_request"),
            "{kind} arity {arity} height {height}: {response}"
        );
        let message = fields["error"].as_str().expect("error message");
        assert!(
            message.contains(nodes) && message.contains("65535"),
            "the refusal names the node count and the bound: {message}"
        );
        assert!(
            bytes < REFUSAL_BUDGET,
            "{kind} arity {arity} height {height}: refusing allocated {bytes} bytes"
        );
    }
    // A tree under the bound (29,524 nodes) is answered, and the counter
    // sees it: its child columns alone exceed the refusal budget.
    let request = format!(r#"{{"kind": "run", "program": "{binary}", "height": 10, "arity": 3}}"#);
    let (response, bytes) = answer(&service, &request);
    assert!(response.contains(r#""nodes":29524"#), "{response}");
    assert!(
        bytes > REFUSAL_BUDGET,
        "answering allocated only {bytes} bytes"
    );
    service.finish();
}
