# Back-to-back 1-cycle ALU chain: every instruction in the loop body
# reads the one before it, so each consumer is ready exactly one cycle
# after its producer issues.
        addiu t2, zero, 100
        addiu t0, zero, 1
loop:
        addu  t0, t0, t0
        xor   t0, t0, t2
        sll   t0, t0, 1
        srl   t0, t0, 1
        addiu t0, t0, 3
        subu  t0, t0, t2
        addiu t2, t2, -1
        bgtz  t2, loop
        halt
