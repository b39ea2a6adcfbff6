//! Property-based tests for the storage engine: encode/decode round trips, scan
//! completeness, and join correctness against an in-memory oracle.
//!
//! The cases are generated by the shared deterministic stream in
//! `fml_linalg::testutil` instead of an external property-testing crate (the
//! build environment is offline), so every run exercises exactly the same
//! inputs — failures are reproducible from the case index alone.

use fml_store::batch::scan_all;
use fml_store::factorized_scan::{GroupScan, JoinScan};
use fml_store::join::materialize_join;
use fml_store::{Database, JoinSpec, Schema, Tuple};
use std::collections::HashMap;

/// Thin adapter over the shared deterministic test stream.
struct Gen(fml_linalg::testutil::TestRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(fml_linalg::testutil::TestRng::new(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.0.range_u64(lo, hi)
    }

    /// Roughly uniform in `[-1e6, 1e6)`.
    fn f64(&mut self) -> f64 {
        self.0.f64_in(-1e6, 1e6)
    }

    fn bool(&mut self) -> bool {
        self.0.bool()
    }
}

const CASES: u64 = 64;

#[test]
fn tuple_encode_decode_roundtrip() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let nfk = g.range(0, 3) as usize;
        let nfeat = g.range(0, 20) as usize;
        let has_target = g.bool();
        let schema = Schema {
            name: "t".into(),
            num_features: nfeat,
            num_foreign_keys: nfk,
            has_target,
        };
        let tuple = Tuple {
            key: g.next_u64(),
            fks: (0..nfk).map(|_| g.range(0, 50)).collect(),
            target: if has_target { Some(g.f64()) } else { None },
            features: (0..nfeat).map(|_| g.f64()).collect(),
        };
        let mut buf = Vec::new();
        tuple.encode(&schema, &mut buf);
        assert_eq!(buf.len(), schema.record_size(), "case {case}");
        let back = Tuple::decode(&schema, &buf).unwrap();
        assert_eq!(back, tuple, "case {case}");
    }
}

#[test]
fn relation_scan_preserves_all_tuples() {
    for case in 0..CASES {
        let mut g = Gen::new(1000 + case);
        let n = g.range(1, 500);
        let nfeat = g.range(1, 12) as usize;
        let db = Database::in_memory();
        let rel = db.create_relation(Schema::dimension("r", nfeat)).unwrap();
        let mut expected = Vec::new();
        {
            let mut r = rel.lock();
            for key in 0..n {
                let t = Tuple::dimension(
                    key,
                    (0..nfeat).map(|j| (key * 7 + j as u64) as f64).collect(),
                );
                r.append(&t).unwrap();
                expected.push(t);
            }
            r.flush().unwrap();
        }
        let scanned = scan_all(&rel, 3).unwrap();
        assert_eq!(scanned, expected, "case {case}");
    }
}

#[test]
fn materialized_join_matches_group_scan_oracle() {
    for case in 0..CASES {
        let mut g = Gen::new(2000 + case);
        let n_r = g.range(1, 20);
        let n_s = g.range(1, 200);
        let d_s = g.range(1, 4) as usize;
        let d_r = g.range(1, 6) as usize;

        let db = Database::in_memory();
        let r = db.create_relation(Schema::dimension("R", d_r)).unwrap();
        let s = db.create_relation(Schema::fact("S", d_s, 1)).unwrap();
        for key in 0..n_r {
            r.lock()
                .append(&Tuple::dimension(key, vec![key as f64; d_r]))
                .unwrap();
        }
        for key in 0..n_s {
            s.lock()
                .append(&Tuple::fact(key, vec![key % n_r], vec![key as f64; d_s]))
                .unwrap();
        }
        r.lock().flush().unwrap();
        s.lock().flush().unwrap();
        let spec = JoinSpec::binary("S", "R");

        // oracle: denormalize via the group scan
        let mut oracle: HashMap<u64, Vec<f64>> = HashMap::new();
        for block in GroupScan::from_spec(&db, &spec, 2).unwrap() {
            for group in block.unwrap() {
                for s_tuple in &group.s_tuples {
                    let j = Tuple::joined(s_tuple, &[&group.r_tuple]);
                    oracle.insert(j.key, j.features);
                }
            }
        }

        let t = materialize_join(&db, &spec, "T", 2).unwrap();
        let rows = t.lock().read_all().unwrap();
        assert_eq!(rows.len() as u64, n_s, "case {case}");
        for row in rows {
            assert_eq!(&oracle[&row.key], &row.features, "case {case}");
        }
    }
}

/// The fact-block stream every trainer and scorer reads, against the
/// materialized join: for random binary and star schemas, each fact appears
/// exactly once, its slots name the dimension tuples its foreign keys
/// reference (the rows `materialize_join` writes), and slot ids are dense
/// and identical across two passes.
#[test]
fn join_scan_blocks_match_materialized_rows() {
    for case in 0..CASES {
        let mut g = Gen::new(3000 + case);
        let q = g.range(1, 4) as usize;
        let n_s = g.range(0, 300);
        let block_pages = g.range(1, 3) as usize;
        let db = Database::in_memory();
        let mut dim_names = Vec::new();
        let mut n_dims = Vec::new();
        for i in 0..q {
            // Wide enough rows that binary R spans several join blocks.
            let n_r = g.range(1, 400);
            let name = format!("R{i}");
            let r = db.create_relation(Schema::dimension(&name, 40)).unwrap();
            let mut r = r.lock();
            // Keys run backwards so slots differ from keys; the features
            // carry the key.
            for j in 0..n_r {
                let key = n_r - 1 - j + 1000 * i as u64;
                r.append(&Tuple::dimension(key, vec![key as f64; 40]))
                    .unwrap();
            }
            r.flush().unwrap();
            dim_names.push(name);
            n_dims.push(n_r);
        }
        let s = db.create_relation(Schema::fact("S", 1, q)).unwrap();
        {
            let mut s = s.lock();
            for key in 0..n_s {
                let fks = (0..q)
                    .map(|i| g.range(0, n_dims[i]) + 1000 * i as u64)
                    .collect();
                s.append(&Tuple::fact(key, fks, vec![key as f64])).unwrap();
            }
            s.flush().unwrap();
        }
        let spec = JoinSpec::multiway("S", dim_names);

        // (fact key, dimension keys) per fact, plus (dim, slot) -> key.
        let pass = || {
            let mut rows: Vec<(u64, Vec<u64>)> = Vec::new();
            let mut slot_keys: Vec<Vec<u64>> = vec![Vec::new(); q];
            for block in JoinScan::new(&db, &spec, block_pages).unwrap() {
                let block = block.unwrap();
                for (i, keys) in slot_keys.iter_mut().enumerate() {
                    assert_eq!(
                        block.first_slots[i],
                        keys.len(),
                        "case {case}: slots are dense"
                    );
                    keys.extend(block.dims[i].iter().map(|t| t.key));
                }
                for (f, fact) in block.facts.iter().enumerate() {
                    let keys = block
                        .fact_slots(f)
                        .iter()
                        .enumerate()
                        .map(|(i, &slot)| slot_keys[i][slot])
                        .collect();
                    rows.push((fact.key, keys));
                }
            }
            (rows, slot_keys)
        };
        let (mut rows, slot_keys) = pass();
        let (mut again, again_slots) = pass();
        assert_eq!(slot_keys, again_slots, "case {case}: stable slot ids");
        rows.sort();
        again.sort();
        assert_eq!(rows, again, "case {case}");

        let t = materialize_join(&db, &spec, "T", block_pages).unwrap();
        let mut expected: Vec<(u64, Vec<u64>)> = t
            .lock()
            .read_all()
            .unwrap()
            .into_iter()
            .map(|row| {
                let keys = (0..q).map(|i| row.features[1 + 40 * i] as u64).collect();
                (row.key, keys)
            })
            .collect();
        expected.sort();
        assert_eq!(rows.len() as u64, n_s, "case {case}: every fact once");
        assert_eq!(rows, expected, "case {case}");
    }
}
