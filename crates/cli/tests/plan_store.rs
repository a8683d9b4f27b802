//! `gmcc --plan-store` with a store in the retired `gmc-plan-store/v1`
//! format, which keyed regions on the full size ordering: the compiler
//! says why it cannot use the store and exits non-zero.

use std::process::Command;

#[test]
fn version_one_plan_store_is_refused_with_its_reason() {
    let dir = std::env::temp_dir().join(format!("gmcc_plan_store_v1_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("product.la");
    std::fs::write(&source, "Matrix A (n, k)\nMatrix B (k, m)\nX := A * B\n").unwrap();
    let store = dir.join("store.json");
    std::fs::write(
        &store,
        r#"{"format": "gmc-plan-store/v1", "inference": "compositional", "kernels": [], "structures": []}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gmcc"))
        .arg(&source)
        .args(["--bind", "n=4,k=5,m=6", "--plan-store"])
        .arg(&store)
        .output()
        .expect("gmcc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a v1 store must fail the run");
    assert!(
        stderr.contains("gmc-plan-store/v1") && stderr.contains("re-record"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
