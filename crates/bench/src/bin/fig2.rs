//! **Figure 2 / Theorem 4** — the lower-bound graph family and the
//! no-finite-stretch result for shortest-widest path.
//!
//! Reproduces three things:
//! 1. the Fig. 2 family itself (for the paper's `p = 2`, `δ = 2` example
//!    and a size sweep), with its information content `|T|·p·log₂ δ` —
//!    the bits any routing scheme must store at the centre side;
//! 2. the condition-(1) weight set for `SW` (`wᵢ = (i, (2k)^{i−1})`),
//!    verified to satisfy `wᵢ ⊕ wⱼ ≻ wᵢ^{2k}, wⱼ^{2k}`;
//! 3. the stretch escape: on the family, every non-preferred
//!    centre→target path exceeds stretch `k`, so stretch-k schemes must
//!    encode the exact preferred paths.
//!
//! ```text
//! cargo run --release -p cpr-bench --bin fig2
//! ```

use cpr_algebra::policies::Capacity;
use cpr_algebra::{check_stretch, policies, RoutingAlgebra, StretchVerdict};
use cpr_bench::{experiment_rng, TextTable};
use cpr_graph::generators::{lower_bound_family, random_lower_bound_family};
use cpr_graph::{EdgeWeights, Graph};
use cpr_paths::exhaustive_preferred;

type SwW = (Capacity, u64);

fn condition1_weights(p: usize, k: u32) -> Vec<SwW> {
    (1..=p as u64)
        .map(|i| {
            (
                Capacity::new(i).expect("positive"),
                (2 * k as u64).pow((i - 1) as u32),
            )
        })
        .collect()
}

fn all_words(p: usize, delta: usize) -> Vec<Vec<u8>> {
    let total = (delta as u32).pow(p as u32);
    (0..total)
        .map(|mut ix| {
            let mut w = vec![0u8; p];
            for s in w.iter_mut() {
                *s = (ix % delta as u32) as u8;
                ix /= delta as u32;
            }
            w
        })
        .collect()
}

fn main() {
    println!("Figure 2 / Theorem 4 — the lower-bound family and stretch-defeating weights\n");

    // ── The paper's example instance. ──
    let fam = lower_bound_family(2, 2, &all_words(2, 2));
    println!(
        "paper instance (p = 2, δ = 2, all 4 words): n = {}, m = {}, information = {} bits",
        fam.graph.node_count(),
        fam.graph.edge_count(),
        fam.information_bits()
    );
    for (t, word) in &fam.targets {
        println!("  target {t}: word {word:?}");
    }

    // ── Size sweep: information content is Ω(n). ──
    println!("\ninformation content vs network size (p = 3, δ = 4, random words):");
    let mut table = TextTable::new(vec!["targets", "n", "info bits", "bits / n"]);
    for t_count in [4usize, 8, 16, 32, 64] {
        let mut rng = experiment_rng("fig2", t_count);
        let fam = random_lower_bound_family(3, 4, t_count, &mut rng);
        let n = fam.graph.node_count();
        let bits = fam.information_bits();
        table.row(vec![
            t_count.to_string(),
            n.to_string(),
            format!("{bits:.0}"),
            format!("{:.2}", bits / n as f64),
        ]);
    }
    println!("{table}");
    println!("bits/n approaches p·log₂ δ / (1 + (p·δ + p)/|T|) → linear in n: no sublinear");
    println!("scheme can distinguish the 2^Ω(n) family members (Fraigniaud–Gavoille counting).\n");

    // ── The counting argument, made operational: distinct family members
    // force distinct forwarding behaviour at the centres. Sample many
    // members of one shape and check that the centres' forwarding
    // functions (first-hop ports towards every target) are pairwise
    // distinct — the routing function is injective on the family, so it
    // must carry the family's full information content. ──
    {
        use cpr_algebra::policies::ShortestPath;
        use cpr_paths::dijkstra;
        let (p, delta, t_count, samples) = (2usize, 3usize, 6usize, 40usize);
        let mut rng = experiment_rng("fig2-counting", samples);
        let mut fingerprints: Vec<Vec<Option<usize>>> = Vec::new();
        for _ in 0..samples {
            let fam = random_lower_bound_family(p, delta, t_count, &mut rng);
            let w = EdgeWeights::uniform(&fam.graph, 1u64); // min-hop
                                                            // The forwarding function of every centre: first-hop port per
                                                            // target, concatenated.
            let mut fp = Vec::new();
            for &c in &fam.centers {
                let hops = dijkstra(&fam.graph, &w, &ShortestPath, c).first_hops();
                for (t, _) in &fam.targets {
                    fp.push(hops[*t].and_then(|next| fam.graph.port_towards(c, next)));
                }
            }
            fingerprints.push(fp);
        }
        let mut unique = fingerprints.clone();
        unique.sort();
        unique.dedup();
        println!(
            "counting, operationally: {samples} random members (p = {p}, δ = {delta}, |T| = {t_count})\n\
             produced {} distinct centre forwarding functions — the routing function is\n\
             injective on the family, so centres store ≥ log₂(δ^(p·|T|)) = {:.1} bits.\n",
            unique.len(),
            (t_count * p) as f64 * (delta as f64).log2()
        );
        assert_eq!(
            unique.len(),
            samples,
            "two members shared a forwarding function"
        );
    }

    // ── Condition (1) for shortest-widest path. ──
    let sw = policies::shortest_widest();
    println!("condition (1) weights for SW, wᵢ = (bᵢ = i, cᵢ = (2k)^(i−1)):");
    let mut cond_table = TextTable::new(vec!["k", "p", "pairs checked", "violations"]);
    for k in [1u32, 2, 3, 4] {
        let p = 5;
        let w = condition1_weights(p, k);
        let mut checked = 0;
        let mut violations = 0;
        for i in 0..p {
            for j in 0..p {
                if i == j {
                    continue;
                }
                let combined = sw.combine(&w[i], &w[j]);
                for target in [i, j] {
                    checked += 1;
                    let bound = sw.power(&w[target], 2 * k);
                    if sw.compare_pw(&combined, &bound) != std::cmp::Ordering::Greater {
                        violations += 1;
                    }
                }
            }
        }
        cond_table.row(vec![
            k.to_string(),
            p.to_string(),
            checked.to_string(),
            violations.to_string(),
        ]);
        assert_eq!(violations, 0, "condition (1) must hold");
    }
    println!("{cond_table}");

    // ── The stretch escape check on the family graph. ──
    println!("on the family graph (p = 3, δ = 2): every alternative path exceeds stretch k");
    let mut escape_table = TextTable::new(vec![
        "k",
        "centre-target pairs",
        "preferred = 2-hop",
        "alternatives ≻ stretch-k",
    ]);
    for k in [1u32, 2, 3] {
        let p = 3;
        let weights = condition1_weights(p, k);
        let words: Vec<Vec<u8>> = all_words(p, 2).into_iter().step_by(2).collect();
        let fam = lower_bound_family(p, 2, &words);
        let ew = EdgeWeights::from_vec(&fam.graph, fam.weights(&weights));
        let mut pairs = 0;
        let mut preferred_ok = 0;
        let mut escapes_blocked = 0;
        for (ci, &c) in fam.centers.iter().enumerate() {
            let truth = exhaustive_preferred(&fam.graph, &ew, &sw, c, true);
            for (t, word) in &fam.targets {
                pairs += 1;
                let relay = fam.relays[ci][word[ci] as usize];
                if truth.path_to(*t) == Some(&[c, relay, *t][..]) {
                    preferred_ok += 1;
                }
                // Remove the preferred relay–target edge: the best
                // remaining path is the best "alternative".
                let mut g2 = Graph::with_nodes(fam.graph.node_count());
                let mut w2: Vec<SwW> = Vec::new();
                for (e, (a, b)) in fam.graph.edges() {
                    if (a.min(b), a.max(b)) == (relay.min(*t), relay.max(*t)) {
                        continue;
                    }
                    g2.add_edge(a, b).expect("subgraph of simple graph");
                    w2.push(*ew.weight(e));
                }
                let w2 = EdgeWeights::from_vec(&g2, w2);
                let alt = exhaustive_preferred(&g2, &w2, &sw, c, true);
                if check_stretch(&sw, alt.weight(*t), truth.weight(*t), k)
                    == StretchVerdict::Exceeded
                {
                    escapes_blocked += 1;
                }
            }
        }
        escape_table.row(vec![
            k.to_string(),
            pairs.to_string(),
            format!("{preferred_ok}/{pairs}"),
            format!("{escapes_blocked}/{pairs}"),
        ]);
        assert_eq!(preferred_ok, pairs);
        assert_eq!(escapes_blocked, pairs);
    }
    println!("{escape_table}");
    println!(
        "Theorem 4 confirmed: for SW, any stretch-k scheme must encode the exact min-hop\n\
         paths of the family — Ω(n) bits at some node, for every finite k."
    );
}
