//! `go` — board-game influence evaluator (analog of SpecInt95 *go*).
//!
//! Character preserved: heavily data-dependent branch ladders over a board,
//! four structurally distinct direction-scan blocks, and evolving board
//! state — the largest static-trace working set of the suite, stressing
//! predictor table capacity the way go stresses it in the paper.

use crate::util::{LCG_ADD, LCG_MUL};
use crate::Workload;
use ntp_isa::asm::assemble;

const W: u32 = 18; // padded board stride; playable area is 15x15
const SIZE: u32 = 15;
const WALL: u32 = 3;
const INIT_STONES: u32 = 40;
const MOVES_PER_ROUND: u32 = 25;

/// One direction scan: identical math in all four directions; the TRISC
/// code unrolls them as distinct blocks.
fn scan(board: &[u8], p: i32, dir: i32, me: u32) -> i32 {
    let mut q = p;
    let mut w: i32 = 16;
    for _ in 0..3 {
        q += dir;
        let v = board[q as usize] as u32;
        if v == 0 {
            w >>= 1;
            continue;
        }
        if v == me {
            return w * 3;
        }
        if v == WALL {
            return -1;
        }
        return w * 2;
    }
    0
}

fn neighbor_bonus(board: &[u8], p: i32, me: u32) -> i32 {
    let mut n = 0i32;
    for dir in [1i32, -1, W as i32, -(W as i32)] {
        if board[(p + dir) as usize] as u32 == me {
            n += 1;
        }
    }
    n * n * 5
}

/// Empty neighbours of `q` (a stone's liberties, to depth one).
fn liberties(board: &[u8], q: i32) -> u32 {
    let mut n = 0;
    for dir in [1i32, -1, W as i32, -(W as i32)] {
        if board[(q + dir) as usize] == 0 {
            n += 1;
        }
    }
    n
}

/// Capture-threat bonus: +40 for each adjacent enemy stone left with at
/// most one liberty (it is in atari or captured outright).
fn atari_bonus(board: &[u8], p: i32, me: u32) -> i32 {
    let enemy = (3 - me) as u8;
    let mut bonus = 0i32;
    for dir in [1i32, -1, W as i32, -(W as i32)] {
        let q = p + dir;
        if board[q as usize] == enemy && liberties(board, q) <= 1 {
            bonus += 40;
        }
    }
    bonus
}

struct RefGo {
    board: Vec<u8>,
    lcg: u32,
    saved_lcg: u32,
    checksum: u32,
}

impl RefGo {
    fn new() -> RefGo {
        RefGo {
            board: vec![0; (W * W) as usize],
            lcg: 0x60_60_60,
            saved_lcg: 0x60_60_60,
            checksum: 0,
        }
    }

    fn next(&mut self) -> u32 {
        self.lcg = self.lcg.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        self.lcg
    }

    fn reset_board(&mut self) {
        for v in self.board.iter_mut() {
            *v = WALL as u8;
        }
        for r in 0..SIZE {
            for c in 0..SIZE {
                self.board[((r + 1) * W + c + 1) as usize] = 0;
            }
        }
        for _ in 0..INIT_STONES {
            let x = self.next();
            let pos = (x >> 8) % (SIZE * SIZE);
            let idx = ((pos / SIZE + 1) * W + pos % SIZE + 1) as usize;
            let color = 1 + (x & 1) as u8;
            if self.board[idx] == 0 {
                self.board[idx] = color;
            }
        }
    }

    /// Plays one round. `fresh` chooses whether the initial position is
    /// drawn freshly from the LCG or replays the previous fresh position
    /// (positions repeat with period 4 so predictors can learn the paths,
    /// as repeated inputs let them in the original benchmark).
    fn round(&mut self, fresh: bool) {
        if fresh {
            self.saved_lcg = self.lcg;
        } else {
            self.lcg = self.saved_lcg;
        }
        self.reset_board();
        let mut me: u32 = 1;
        for _ in 0..MOVES_PER_ROUND {
            let mut best_pos: i32 = -1;
            let mut best_score: i32 = i32::MIN + 1;
            for r in 0..SIZE {
                for c in 0..SIZE {
                    let p = ((r + 1) * W + c + 1) as i32;
                    if self.board[p as usize] != 0 {
                        continue;
                    }
                    let mut score = 0i32;
                    score += scan(&self.board, p, 1, me);
                    score += scan(&self.board, p, -1, me);
                    score += scan(&self.board, p, W as i32, me);
                    score += scan(&self.board, p, -(W as i32), me);
                    score += neighbor_bonus(&self.board, p, me);
                    score += atari_bonus(&self.board, p, me);
                    if score > best_score {
                        best_score = score;
                        best_pos = p;
                    }
                }
            }
            if best_pos < 0 {
                break;
            }
            self.board[best_pos as usize] = me as u8;
            self.checksum = self
                .checksum
                .wrapping_mul(31)
                .wrapping_add((best_pos as u32).wrapping_mul(me))
                .wrapping_add(best_score as u32);
            me = 3 - me;
        }
    }
}

fn reference(rounds: u32) -> Vec<u32> {
    let mut g = RefGo::new();
    let mut out = Vec::new();
    for k in 0..rounds {
        g.round(k % 4 == 0);
        out.push(g.checksum);
    }
    out
}

/// Emits one unrolled direction-scan block. `dir` is the cell offset;
/// result is accumulated into s5 (score). Position is in s4.
fn scan_block(tag: &str, dir: i32) -> String {
    format!(
        "
; ---- scan direction {dir} ----
        move t0, s4             ; q = p
        li   t1, 16             ; w
        li   t2, 3              ; steps
scan{tag}_loop:
        addi t0, t0, {dir}
        add  t3, fp, t0
        lbu  t4, 0(t3)
        bnez t4, scan{tag}_stone
        srl  t1, t1, 1
        addi t2, t2, -1
        bnez t2, scan{tag}_loop
        j    scan{tag}_done
scan{tag}_stone:
        beq  t4, s3, scan{tag}_mine
        li   t5, {wall}
        beq  t4, t5, scan{tag}_wall
        sll  t5, t1, 1          ; enemy: w*2
        add  s5, s5, t5
        j    scan{tag}_done
scan{tag}_mine:
        sll  t5, t1, 1
        add  t5, t5, t1         ; w*3
        add  s5, s5, t5
        j    scan{tag}_done
scan{tag}_wall:
        addi s5, s5, -1
scan{tag}_done:
",
        wall = WALL,
    )
}

/// Builds the workload; `rounds` scales run length (~550K instructions per
/// round).
pub fn build(rounds: u32) -> Workload {
    assert!(rounds >= 1);
    let src = format!(
        "
; go — influence-map move selector
; s0 lcg state, s1 rounds, s2 checksum, s3 color, s4 pos, s5 score,
; s6 best_pos, s7 best_score, fp board base
main:   la   fp, board
        li   s0, 0x606060
        li   s1, {rounds}
        li   s2, 0
round:
        ; ---- 4-round-periodic seeding: fresh every 4th round ----
        andi t0, s1, 3
        li   t1, {fresh_phase}
        la   t2, seedsave
        bne  t0, t1, reuse_seed
        sw   s0, 0(t2)
        j    seeded
reuse_seed:
        lw   s0, 0(t2)
seeded:
        ; ---- reset board: fill walls, carve 15x15, sprinkle stones ----
        li   t0, 0
        li   t1, {total}
fillw:  add  t2, fp, t0
        li   t3, {wall}
        sb   t3, 0(t2)
        addi t0, t0, 1
        bne  t0, t1, fillw
        li   t0, 0              ; r
carve_r:
        li   t1, 0              ; c
carve_c:
        addi t2, t0, 1
        li   t3, {w}
        mul  t2, t2, t3
        add  t2, t2, t1
        addi t2, t2, 1
        add  t2, fp, t2
        sb   zero, 0(t2)
        addi t1, t1, 1
        li   t3, {size}
        bne  t1, t3, carve_c
        addi t0, t0, 1
        bne  t0, t3, carve_r
        li   t6, {stones}
sprinkle:
        li   t0, {lcg_mul}
        mul  s0, s0, t0
        li   t0, {lcg_add}
        add  s0, s0, t0
        srl  t1, s0, 8
        li   t2, {area}
        remu t1, t1, t2         ; pos
        li   t2, {size}
        divu t3, t1, t2         ; row
        remu t4, t1, t2         ; col
        addi t3, t3, 1
        li   t2, {w}
        mul  t3, t3, t2
        add  t3, t3, t4
        addi t3, t3, 1
        add  t3, fp, t3
        lbu  t5, 0(t3)
        bnez t5, no_place
        andi t5, s0, 1
        addi t5, t5, 1
        sb   t5, 0(t3)
no_place:
        addi t6, t6, -1
        bnez t6, sprinkle
        ; ---- play moves ----
        li   s3, 1              ; color
        li   t9, {moves}
move_loop:
        li   s6, -1             ; best_pos
        lui  s7, 0x8000
        addi s7, s7, 1          ; best_score = i32::MIN + 1
        li   t7, 0              ; r
eval_r: li   t8, 0              ; c
eval_c:
        addi t0, t7, 1
        li   t1, {w}
        mul  t0, t0, t1
        add  t0, t0, t8
        addi s4, t0, 1          ; p
        add  t0, fp, s4
        lbu  t1, 0(t0)
        bnez t1, eval_next      ; occupied
        li   s5, 0              ; score
{scan_e}
{scan_w}
{scan_s}
{scan_n}
        ; ---- neighbour bonus: n*n*5 ----
        li   t0, 0
        add  t1, fp, s4
        lbu  t2, 1(t1)
        bne  t2, s3, nb1
        addi t0, t0, 1
nb1:    lbu  t2, -1(t1)
        bne  t2, s3, nb2
        addi t0, t0, 1
nb2:    lbu  t2, {w}(t1)
        bne  t2, s3, nb3
        addi t0, t0, 1
nb3:    lbu  t2, -{w}(t1)
        bne  t2, s3, nb4
        addi t0, t0, 1
nb4:    mul  t2, t0, t0
        sll  t3, t2, 2
        add  t2, t2, t3         ; n*n*5
        add  s5, s5, t2
        ; ---- capture-threat (atari) bonus: each direction unrolled ----
        li   t6, 3
        sub  t6, t6, s3         ; enemy colour
        addi a0, s4, 1
        add  t0, fp, a0
        lbu  t1, 0(t0)
        bne  t1, t6, atari_e
        jal  liberties
        li   t0, 1
        bgtu v0, t0, atari_e
        addi s5, s5, 40
atari_e:
        li   t6, 3
        sub  t6, t6, s3
        addi a0, s4, -1
        add  t0, fp, a0
        lbu  t1, 0(t0)
        bne  t1, t6, atari_w
        jal  liberties
        li   t0, 1
        bgtu v0, t0, atari_w
        addi s5, s5, 40
atari_w:
        li   t6, 3
        sub  t6, t6, s3
        addi a0, s4, {w}
        add  t0, fp, a0
        lbu  t1, 0(t0)
        bne  t1, t6, atari_s
        jal  liberties
        li   t0, 1
        bgtu v0, t0, atari_s
        addi s5, s5, 40
atari_s:
        li   t6, 3
        sub  t6, t6, s3
        addi a0, s4, -{w}
        add  t0, fp, a0
        lbu  t1, 0(t0)
        bne  t1, t6, atari_n
        jal  liberties
        li   t0, 1
        bgtu v0, t0, atari_n
        addi s5, s5, 40
atari_n:
        ; ---- argmax ----
        bge  s7, s5, eval_next
        move s7, s5
        move s6, s4
eval_next:
        addi t8, t8, 1
        li   t0, {size}
        bne  t8, t0, eval_c
        addi t7, t7, 1
        bne  t7, t0, eval_r
        ; ---- place best move ----
        bltz s6, round_done
        add  t0, fp, s6
        sb   s3, 0(t0)
        li   t1, 31
        mul  s2, s2, t1
        mul  t2, s6, s3
        add  s2, s2, t2
        add  s2, s2, s7
        li   t3, 3
        sub  s3, t3, s3         ; switch color
        addi t9, t9, -1
        bnez t9, move_loop
round_done:
        out  s2
        addi s1, s1, -1
        bnez s1, round
        halt

; ---- liberties(a0 = stone position) -> v0 = empty neighbours ----
liberties:
        li   v0, 0
        add  t0, fp, a0
        lbu  t1, 1(t0)
        bnez t1, lib1
        addi v0, v0, 1
lib1:   lbu  t1, -1(t0)
        bnez t1, lib2
        addi v0, v0, 1
lib2:   lbu  t1, {w}(t0)
        bnez t1, lib3
        addi v0, v0, 1
lib3:   lbu  t1, -{w}(t0)
        bnez t1, lib4
        addi v0, v0, 1
lib4:   ret
        .data
seedsave:
        .word 0
board:  .space {total}
",
        total = W * W,
        w = W,
        size = SIZE,
        wall = WALL,
        stones = INIT_STONES,
        area = SIZE * SIZE,
        moves = MOVES_PER_ROUND,
        lcg_mul = LCG_MUL,
        lcg_add = LCG_ADD,
        fresh_phase = rounds & 3,
        scan_e = scan_block("e", 1),
        scan_w = scan_block("w", -1),
        scan_s = scan_block("s", W as i32),
        scan_n = scan_block("n", -(W as i32)),
    );
    let program = assemble(&src).expect("go workload assembles");
    Workload {
        name: "go",
        analog_of: "SpecInt95 go (input: seeded 15x15 positions, 25 moves/round)",
        description: "influence-map board evaluation with unrolled direction scans",
        program,
        expected_output: reference(rounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_small() {
        let w = build(1);
        let out = w.run_to_halt(20_000_000);
        assert_eq!(out, w.expected_output);
    }

    #[test]
    fn multiple_rounds_progress() {
        let w = build(2);
        let out = w.run_to_halt(40_000_000);
        assert_eq!(out, w.expected_output);
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn reference_places_distinct_moves() {
        let mut g = RefGo::new();
        g.round(true);
        let stones: usize = g.board.iter().filter(|&&v| v == 1 || v == 2).count();
        assert!(stones > INIT_STONES as usize / 2);
    }
}
