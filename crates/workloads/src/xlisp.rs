//! `xlisp` — recursive expression-tree evaluator (analog of SpecInt95
//! *xlisp*).
//!
//! Character preserved: evaluation is dominated by deep, data-driven
//! recursion (like xlisp's `eval`/`apply`), producing long call/return
//! chains that flush path history and exercise the return history stack —
//! including an odd/even data-dependent operator that keeps branches
//! unpredictable.
//!
//! A forest of random binary expression trees lives in the data segment;
//! each round reseeds the leaves from an LCG and re-evaluates every tree.

use crate::util::{fill, word_bytes, Lcg, LCG_ADD, LCG_MUL};
use crate::Workload;
use ntp_isa::asm::assemble;

const OP_LEAF: u32 = 0;
const OP_ADD: u32 = 1;
const OP_SUB: u32 = 2;
const OP_MUL: u32 = 3;
const OP_MIN: u32 = 4;
const OP_MAX: u32 = 5;
const OP_CONDSEL: u32 = 6;

/// A node: `op`, `a` (left child index, or leaf value), `b` (right child
/// index). 12 bytes in guest memory.
#[derive(Copy, Clone, Debug)]
struct Node {
    op: u32,
    a: u32,
    b: u32,
}

struct Forest {
    nodes: Vec<Node>,
    leaves: Vec<u32>,
    roots: Vec<u32>,
}

fn gen_tree(lcg: &mut Lcg, f: &mut Forest, depth: u32) -> u32 {
    let leaf = depth >= 14 || lcg.below(5) == 0;
    if leaf {
        let idx = f.nodes.len() as u32;
        f.nodes.push(Node {
            op: OP_LEAF,
            a: 0,
            b: 0,
        });
        f.leaves.push(idx);
        return idx;
    }
    let op = 1 + lcg.below(6);
    // Reserve the slot first so parents precede children (irrelevant to
    // semantics, but keeps indexes compact).
    let idx = f.nodes.len() as u32;
    f.nodes.push(Node { op, a: 0, b: 0 });
    let a = gen_tree(lcg, f, depth + 1);
    let b = gen_tree(lcg, f, depth + 1);
    f.nodes[idx as usize].a = a;
    f.nodes[idx as usize].b = b;
    idx
}

fn make_forest(trees: usize, seed: u32) -> Forest {
    let mut f = Forest {
        nodes: Vec::new(),
        leaves: Vec::new(),
        roots: Vec::new(),
    };
    let mut lcg = Lcg::new(seed);
    for _ in 0..trees {
        let r = gen_tree(&mut lcg, &mut f, 0);
        f.roots.push(r);
    }
    f
}

fn eval(nodes: &[Node], i: u32) -> u32 {
    let n = nodes[i as usize];
    if n.op == OP_LEAF {
        return n.a;
    }
    let l = eval(nodes, n.a);
    let r = eval(nodes, n.b);
    match n.op {
        OP_ADD => l.wrapping_add(r),
        OP_SUB => l.wrapping_sub(r),
        OP_MUL => l.wrapping_mul(r),
        OP_MIN => {
            if (l as i32) < (r as i32) {
                l
            } else {
                r
            }
        }
        OP_MAX => {
            if (l as i32) < (r as i32) {
                r
            } else {
                l
            }
        }
        OP_CONDSEL => {
            if l & 1 != 0 {
                l.wrapping_add(r)
            } else {
                l.wrapping_sub(r)
            }
        }
        _ => unreachable!(),
    }
}

fn reference(f: &Forest, rounds: u32) -> Vec<u32> {
    let mut nodes = f.nodes.clone();
    let mut lcg: u32 = 0x11_51_F0;
    let mut checksum: u32 = 0;
    let mut out = Vec::new();
    for k in 0..rounds {
        // Leaves are reseeded every 4th round, so three of four rounds
        // replay identical evaluations — repetition predictors can learn.
        if k % 4 == 0 {
            for &leaf in &f.leaves {
                lcg = lcg.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
                nodes[leaf as usize].a = (lcg >> 8) & 0xFFFF;
            }
        }
        for &root in &f.roots {
            let v = eval(&nodes, root);
            checksum = checksum.wrapping_mul(31).wrapping_add(v);
        }
        out.push(checksum);
    }
    out
}

/// Builds the workload; `rounds` scales run length (~200K instructions per
/// round).
pub fn build(rounds: u32) -> Workload {
    assert!(rounds >= 1);
    let forest = make_forest(8, 0x715F);
    let node_words: Vec<u32> = forest.nodes.iter().flat_map(|n| [n.op, n.a, n.b]).collect();
    let n_leaves = forest.leaves.len() as u32;
    let n_roots = forest.roots.len() as u32;
    let src = format!(
        "
; xlisp — recursive expression-tree evaluator
; s1 nodes base, s2 leaves base, s5 roots base, s0 lcg, s6 checksum,
; s7 rounds
main:   la   s1, nodes
        la   s2, leaves
        la   s5, roots
        li   s0, 0x1151F0
        li   s6, 0
        li   s7, {rounds}
round:
        ; ---- reseed leaves every 4th round ----
        andi t0, s7, 3
        li   t1, {fresh_phase}
        bne  t0, t1, eval_all
        li   t0, 0
reseed: li   t1, {lcg_mul}
        mul  s0, s0, t1
        li   t1, {lcg_add}
        add  s0, s0, t1
        sll  t2, t0, 2
        add  t2, s2, t2
        lw   t3, 0(t2)          ; leaf node index
        li   t4, 12
        mul  t4, t3, t4
        add  t4, s1, t4
        srl  t5, s0, 8
        andi t5, t5, 0xFFFF
        sw   t5, 4(t4)          ; node.a = value
        addi t0, t0, 1
        li   t1, {n_leaves}
        bne  t0, t1, reseed
eval_all:
        ; ---- evaluate every tree ----
        li   t9, 0
trees:  sll  t0, t9, 2
        add  t0, s5, t0
        lw   a0, 0(t0)
        jal  eval
        li   t1, 31
        mul  s6, s6, t1
        add  s6, s6, v0
        addi t9, t9, 1
        li   t1, {n_roots}
        bne  t9, t1, trees
        out  s6
        addi s7, s7, -1
        bnez s7, round
        halt

; ---- eval(a0 = node index) -> v0 ----
eval:   li   t0, 12
        mul  t0, a0, t0
        add  t0, s1, t0         ; node address
        lw   t1, 0(t0)          ; op
        bnez t1, eval_inner
        lw   v0, 4(t0)          ; leaf value
        ret
eval_inner:
        addi sp, sp, -12
        sw   ra, 8(sp)
        sw   s3, 4(sp)
        sw   t0, 0(sp)
        lw   a0, 4(t0)          ; left child
        jal  eval
        move s3, v0
        lw   t0, 0(sp)
        lw   a0, 8(t0)          ; right child
        jal  eval
        lw   t0, 0(sp)
        lw   t1, 0(t0)          ; op again
        li   t2, {op_add}
        beq  t1, t2, do_add
        li   t2, {op_sub}
        beq  t1, t2, do_sub
        li   t2, {op_mul}
        beq  t1, t2, do_mul
        li   t2, {op_min}
        beq  t1, t2, do_min
        li   t2, {op_max}
        beq  t1, t2, do_max
        ; condsel: odd(left) ? left+right : left-right
        andi t3, s3, 1
        beqz t3, cs_sub
        add  v0, s3, v0
        j    eval_ret
cs_sub: sub  v0, s3, v0
        j    eval_ret
do_add: add  v0, s3, v0
        j    eval_ret
do_sub: sub  v0, s3, v0
        j    eval_ret
do_mul: mul  v0, s3, v0
        j    eval_ret
do_min: blt  s3, v0, min_left
        j    eval_ret           ; v0 already holds right
min_left:
        move v0, s3
        j    eval_ret
do_max: blt  s3, v0, eval_ret   ; right is larger, keep v0
        move v0, s3
eval_ret:
        lw   s3, 4(sp)
        lw   ra, 8(sp)
        addi sp, sp, 12
        ret
        .data
nodes:  .space {node_bytes}
leaves: .space {leaf_bytes}
roots:  .space {root_bytes}
",
        lcg_mul = LCG_MUL,
        lcg_add = LCG_ADD,
        fresh_phase = rounds & 3,
        n_leaves = n_leaves,
        n_roots = n_roots,
        op_add = OP_ADD,
        op_sub = OP_SUB,
        op_mul = OP_MUL,
        op_min = OP_MIN,
        op_max = OP_MAX,
        node_bytes = node_words.len() * 4,
        leaf_bytes = n_leaves * 4,
        root_bytes = n_roots * 4,
    );
    let mut program = assemble(&src).expect("xlisp workload assembles");
    fill(&mut program, "nodes", &word_bytes(&node_words));
    fill(&mut program, "leaves", &word_bytes(&forest.leaves));
    fill(&mut program, "roots", &word_bytes(&forest.roots));
    Workload {
        name: "xlisp",
        analog_of:
            "SpecInt95 xlisp (input: 8 random expression trees, leaves reseeded every 4th round)",
        description: "deeply recursive tree evaluation with data-dependent operators",
        program,
        expected_output: reference(&forest, rounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_has_depth() {
        let f = make_forest(8, 0x715F);
        assert!(f.nodes.len() > 200, "{} nodes", f.nodes.len());
        assert!(!f.leaves.is_empty());
        assert_eq!(f.roots.len(), 8);
    }

    #[test]
    fn matches_reference_small() {
        let w = build(2);
        let out = w.run_to_halt(30_000_000);
        assert_eq!(out, w.expected_output);
    }

    #[test]
    fn eval_handles_each_op() {
        // min(3, max(5, 1)) = 3; condsel(3, 4) = 7 (3 is odd).
        let nodes = vec![
            Node {
                op: OP_MIN,
                a: 1,
                b: 2,
            }, // 0
            Node {
                op: OP_LEAF,
                a: 3,
                b: 0,
            }, // 1
            Node {
                op: OP_MAX,
                a: 3,
                b: 4,
            }, // 2
            Node {
                op: OP_LEAF,
                a: 5,
                b: 0,
            }, // 3
            Node {
                op: OP_LEAF,
                a: 1,
                b: 0,
            }, // 4
            Node {
                op: OP_CONDSEL,
                a: 1,
                b: 3,
            }, // 5
        ];
        assert_eq!(eval(&nodes, 0), 3);
        assert_eq!(eval(&nodes, 5), 8);
    }
}
