# Store-to-load chains: each load reads the word the store just before
# it wrote, and the next store writes what the load returned.  The
# pointer walks forward, so D-cache misses put some loads, and their
# consumers, several cycles out.
        lui   t0, 1
        addiu t1, zero, 7
        addiu t2, zero, 60
loop:
        sw    t1, 0(t0)
        lw    t3, 0(t0)
        addiu t1, t3, 1
        sw    t1, 4(t0)
        lw    t4, 4(t0)
        addu  t1, t1, t4
        addiu t0, t0, 8
        addiu t2, t2, -1
        bgtz  t2, loop
        halt
