//! Pins what the VDX reader and writer do: every shipped spec and every
//! preset keeps its `Debug` form and its `to_json()` text byte for byte,
//! reads back to itself, and the documents the reader refuses are refused
//! as [`VdxError::Parse`] naming what is wrong.

use avoc::prelude::*;
use avoc::vdx::VdxError;
use std::path::PathBuf;

/// Every name [`VdxSpec::preset`] recognises, aliases included.
const PRESETS: [&str; 14] = [
    "average",
    "avg",
    "stateless",
    "stateless-weighted",
    "standard",
    "me",
    "module-elimination",
    "sdt",
    "soft-dynamic-threshold",
    "hybrid",
    "cov",
    "clustering",
    "clustering-only",
    "avoc",
];

/// `(source, FNV-1a of the Debug form, FNV-1a of the to_json() text)`.
const PINNED: [(&str, u64, u64); 19] = [
    ("avoc.json", 14211251960905330158, 16589927386507428926),
    ("ble-tunnel.json", 9101047864754527781, 281127365776328028),
    (
        "categorical-majority.json",
        3555951838411883950,
        2705966316804366028,
    ),
    (
        "smart-building.json",
        1232582545405034637,
        754282613103946723,
    ),
    (
        "vector-position.json",
        7629568622495770027,
        1908147868835071505,
    ),
    ("average", 4655198227515988381, 2538844407125037380),
    ("avg", 4655198227515988381, 2538844407125037380),
    ("stateless", 5742746838866826355, 5783763342125245274),
    (
        "stateless-weighted",
        5742746838866826355,
        5783763342125245274,
    ),
    ("standard", 13247278998493827308, 3751781335498058821),
    ("me", 1621902035878218588, 3492193211263845402),
    (
        "module-elimination",
        1621902035878218588,
        3492193211263845402,
    ),
    ("sdt", 14028283165798818084, 10502268783288586461),
    (
        "soft-dynamic-threshold",
        14028283165798818084,
        10502268783288586461,
    ),
    ("hybrid", 14209319494538481451, 12302868126543689307),
    ("cov", 6681173365853192425, 10835983040791783424),
    ("clustering", 6681173365853192425, 10835983040791783424),
    ("clustering-only", 6681173365853192425, 10835983040791783424),
    ("avoc", 14211251960905330158, 16589927386507428926),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every shipped spec by file name, then every preset by name.
fn specs() -> Vec<(String, VdxSpec)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("specs/ exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    files.sort();
    let mut specs: Vec<(String, VdxSpec)> = files
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let spec = VdxSpec::from_file(path).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, spec)
        })
        .collect();
    specs.extend(
        PRESETS
            .iter()
            .map(|name| (name.to_string(), VdxSpec::preset(name).expect("preset"))),
    );
    specs
}

#[test]
fn every_spec_and_preset_keeps_its_form_and_text() {
    let specs = specs();
    let got: Vec<(&str, u64, u64)> = specs
        .iter()
        .map(|(name, spec)| {
            (
                name.as_str(),
                fnv1a(&format!("{spec:?}")),
                fnv1a(&spec.to_json()),
            )
        })
        .collect();
    assert_eq!(got, PINNED);
}

#[test]
fn every_spec_and_preset_reads_back_to_itself() {
    for (name, spec) in specs() {
        let back = VdxSpec::from_json(&spec.to_json()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, spec, "{name}");
    }
}

#[test]
fn an_integral_quorum_count_reads_as_a_count() {
    let spec =
        VdxSpec::from_json(r#"{"algorithm_name": "q", "quorum": "COUNT", "quorum_count": 2.0}"#)
            .unwrap();
    assert_eq!(spec.quorum_count, Some(2));
}

/// `(document, what the parse error names)`.
const REFUSED: [(&str, &str); 8] = [
    (
        r#"{"algorithm_name": "x", "bogus_field": 1}"#,
        "bogus_field",
    ),
    (r#"{"algorithm_name": "x", "history": "HYBRD"}"#, "history"),
    (r#"{"algorithm_name": "x", "history": null}"#, "history"),
    (r#"{"algorithm_name": "x", "params": {}}"#, "`error`"),
    (
        r#"{"algorithm_name": "x", "quorum_count": -1}"#,
        "quorum_count",
    ),
    (
        r#"{"algorithm_name": "x", "quorum_count": 2.5}"#,
        "quorum_count",
    ),
    (r#"["algorithm_name"]"#, "object"),
    (r#"{"algorithm_name": "x", "params": {"error": 0.0"#, "byte"),
];

#[test]
fn refused_documents_name_what_is_wrong() {
    for (doc, names) in REFUSED {
        match VdxSpec::from_json(doc) {
            Err(VdxError::Parse(e)) => {
                let msg = e.to_string();
                assert!(msg.contains(names), "{doc}: `{msg}` does not name {names}");
            }
            other => panic!("{doc}: expected a parse error, got {other:?}"),
        }
    }
}
