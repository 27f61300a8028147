//! The `.mk` kernel corpus the frontend compiles (`kernels/` at the
//! repository root, read from the working directory).

use std::path::Path;

/// `(file stem, source)` of every `kernels/*.mk`, sorted by name.
pub fn sources() -> Vec<(String, String)> {
    let dir = Path::new("kernels");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("kernels/ is readable from the repository root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mk"))
        .map(|p| {
            let stem = p
                .file_stem()
                .expect("file has a stem")
                .to_string_lossy()
                .into_owned();
            let src = std::fs::read_to_string(&p).expect("kernel source is UTF-8");
            (stem, src)
        })
        .collect();
    out.sort();
    assert!(!out.is_empty(), "kernels/ holds no .mk sources");
    out
}
