//! Allocation budget of the wire request parser: `parse_request_line`
//! borrows the structure name and every variable name from the line,
//! so a well-formed request costs one allocation, the sizes' `Vec`. It
//! fails loudly if owned names creep back into the parse, as before it
//! borrowed them (one `String` per name, 5 allocations on this line).

mod alloc_counter;

use alloc_counter::allocations;
use gmc_serve::protocol::parse_request_line;

#[test]
fn request_parse_allocates_once() {
    let line = "X n=2000,m=200,k=30,deadline_ms=5";
    let (parsed, count) = allocations(|| parse_request_line(line));
    let (name, vars, deadline_ms) = parsed.expect("a well-formed request");
    assert_eq!(name, "X");
    let vars: Vec<(&str, usize)> = vars.iter().map(|(v, n)| (v.as_ref(), *n)).collect();
    assert_eq!(vars, [("n", 2000), ("m", 200), ("k", 30)]);
    assert_eq!(deadline_ms, Some(5));
    assert!(count <= 1, "{count} allocations parsing `{line}`, budget 1");
}
