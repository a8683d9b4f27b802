//! `gmcc --plan-store` with a store in a retired format: the compiler
//! says why it cannot use the store and exits non-zero. Both
//! `gmc-plan-store/v1` (regions keyed on the full size ordering) and
//! `/v2` (recorded plans) have to be re-recorded as `/v3`, which keeps
//! only the binding each region was recorded at.

use std::process::Command;

#[test]
fn version_one_plan_store_is_refused_with_its_reason() {
    let dir = std::env::temp_dir().join(format!("gmcc_plan_store_old_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("product.la");
    std::fs::write(&source, "Matrix A (n, k)\nMatrix B (k, m)\nX := A * B\n").unwrap();
    let store = dir.join("store.json");
    for format in ["gmc-plan-store/v1", "gmc-plan-store/v2"] {
        std::fs::write(
            &store,
            format!(
                r#"{{"format": "{format}", "inference": "compositional", "kernels": [], "structures": []}}"#
            ),
        )
        .unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_gmcc"))
            .arg(&source)
            .args(["--bind", "n=4,k=5,m=6", "--plan-store"])
            .arg(&store)
            .output()
            .expect("gmcc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "a {format} store must fail the run");
        assert!(
            stderr.contains(format) && stderr.contains("re-record the store"),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
