//! The one cycle finder: a deterministic three-colour depth-first search.
//!
//! A cycle in the channel-dependency graph and a circular wait at run time
//! are the same thing, a cycle in a digraph, so both deadlock checks report
//! theirs through [`find_cycle`]: the CDG with unit labels, the wait-for
//! graph with each wait's channel as the label.

use std::collections::HashMap;
use std::hash::Hash;

/// Searches the digraph reachable from `roots` for a cycle.
///
/// Roots are visited in ascending order, and each node's out-edges, as
/// `(target, label)` pairs, in the order `successors` yields them. The
/// search stops at the first back edge and returns the cycle starting at
/// that edge's target: each node paired with the label of its edge to the
/// next, the last node's edge closing back to the first. `None` means no
/// cycle is reachable from any root.
///
/// # Example
///
/// ```
/// use wormsim_observe::find_cycle;
///
/// // 1 -a-> 2 -b-> 3 -c-> 2: the back edge `c` closes the cycle at 2.
/// let edges = [(1, 2, 'a'), (2, 3, 'b'), (3, 2, 'c')];
/// let successors = |n| edges.iter().filter(move |e| e.0 == n).map(|e| (e.1, e.2));
/// assert_eq!(find_cycle([1], successors), Some(vec![(2, 'b'), (3, 'c')]));
/// ```
pub fn find_cycle<N, L, I>(
    roots: impl IntoIterator<Item = N>,
    mut successors: impl FnMut(N) -> I,
) -> Option<Vec<(N, L)>>
where
    N: Copy + Ord + Hash,
    I: IntoIterator<Item = (N, L)>,
{
    enum Colour {
        /// On the current path, at this depth.
        Grey(usize),
        Black,
    }
    let mut roots: Vec<N> = roots.into_iter().collect();
    roots.sort_unstable();
    let mut colour: HashMap<N, Colour> = HashMap::new();
    for root in roots {
        if colour.contains_key(&root) {
            continue;
        }
        colour.insert(root, Colour::Grey(0));
        // The path from `root`, each node with its unexplored out-edges;
        // `labels[i]` is the edge from `path[i]` to `path[i + 1]`.
        let mut path = vec![(root, successors(root).into_iter())];
        let mut labels: Vec<L> = Vec::new();
        while let Some((node, edges)) = path.last_mut() {
            let Some((next, label)) = edges.next() else {
                colour.insert(*node, Colour::Black);
                path.pop();
                labels.pop();
                continue;
            };
            match colour.get(&next) {
                None => {
                    colour.insert(next, Colour::Grey(path.len()));
                    labels.push(label);
                    path.push((next, successors(next).into_iter()));
                }
                Some(&Colour::Grey(start)) => {
                    labels.push(label);
                    let nodes = path.drain(start..).map(|(node, _)| node);
                    return Some(nodes.zip(labels.drain(start..)).collect());
                }
                Some(Colour::Black) => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::find_cycle;

    /// Whether Kahn's topological sort of the `n`-node digraph leaves
    /// nodes unsorted: the graph has a cycle.
    fn kahn_finds_a_cycle(n: usize, edges: &[(usize, u64, usize)]) -> bool {
        let mut indegree = vec![0usize; n];
        for &(_, _, to) in edges {
            indegree[to] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut sorted = 0;
        while let Some(v) = ready.pop() {
            sorted += 1;
            for &(from, _, to) in edges {
                if from == v {
                    indegree[to] -= 1;
                    if indegree[to] == 0 {
                        ready.push(to);
                    }
                }
            }
        }
        sorted < n
    }

    /// Over seeded random digraphs with multi-edges and self-loops, the
    /// finder returns a cycle exactly when the graph has one, the cycle is
    /// a simple loop of recorded edges carrying the returned labels, and
    /// the same input gives the same cycle.
    #[test]
    fn finds_a_real_cycle_exactly_when_one_exists() {
        let mut state = 1993u64;
        let mut next = |below: u64| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % below
        };
        let mut cyclic = 0;
        for _ in 0..2000 {
            let n = 1 + next(12) as usize;
            let edges: Vec<(usize, u64, usize)> = (0..next(3 * n as u64))
                .map(|_| (next(n as u64) as usize, next(6), next(n as u64) as usize))
                .collect();
            let mut adjacency = vec![Vec::new(); n];
            for &(from, label, to) in &edges {
                adjacency[from].push((to, label));
            }
            let run = || find_cycle((0..n).rev(), |v| adjacency[v].iter().copied());
            let cycle = run();
            assert_eq!(cycle.is_some(), kahn_finds_a_cycle(n, &edges), "{edges:?}");
            assert_eq!(run(), cycle, "a second run differs on {edges:?}");
            let Some(cycle) = cycle else { continue };
            cyclic += 1;
            let mut nodes: Vec<usize> = cycle.iter().map(|&(v, _)| v).collect();
            for (i, &(from, label)) in cycle.iter().enumerate() {
                let to = cycle[(i + 1) % cycle.len()].0;
                assert!(
                    edges.contains(&(from, label, to)),
                    "hop {i} of {cycle:?} has no edge in {edges:?}"
                );
            }
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), cycle.len(), "{cycle:?} is not simple");
        }
        assert!(cyclic > 500, "only {cyclic} of 2000 digraphs had a cycle");
    }

    #[test]
    fn roots_ascend_edges_keep_their_order_and_the_cycle_starts_at_the_back_edge() {
        // 0 -> 1 -> 2 -> 1 is met first; visiting root 3, or node 0's
        // edges in reverse, would meet the self-loop at 3 instead.
        let adjacency = [
            vec![(1, 'a'), (3, 'x')],
            vec![(2, 'b')],
            vec![(1, 'c')],
            vec![(3, 's')],
        ];
        let cycle = find_cycle([3, 0], |v: usize| adjacency[v].iter().copied());
        assert_eq!(cycle, Some(vec![(1, 'b'), (2, 'c')]));
        let acyclic = [vec![(1, ()), (2, ())], vec![(2, ())], vec![]];
        assert_eq!(
            find_cycle(0..3, |v: usize| acyclic[v].iter().copied()),
            None
        );
    }
}
