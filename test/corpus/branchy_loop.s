# Branchy loop: two branches per iteration depend on the low bits of a
# xorshift generator, so a history-based predictor keeps mispredicting
# and squashing wrong-path work, including wrong-path loads.
        addiu t0, zero, 12345
        addiu t2, zero, 150
        lui   t6, 2
loop:
        sll   t1, t0, 13
        xor   t0, t0, t1
        srl   t1, t0, 17
        xor   t0, t0, t1
        sll   t1, t0, 5
        xor   t0, t0, t1
        andi  t3, t0, 1
        beq   t3, zero, even
        addiu t5, t5, 1
        lw    t4, 0(t6)
        addu  t4, t4, t5
        sw    t4, 0(t6)
even:
        andi  t3, t0, 6
        bne   t3, zero, skip
        addiu t5, t5, -3
skip:
        addiu t2, t2, -1
        bgtz  t2, loop
        halt
