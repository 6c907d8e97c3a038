# Zero-latency extended-instruction chain.  Each ext# consumes the
# previous result, and the corpus runs ext# at latency 0 with
# unlimited PFUs: a consumer must issue in the same pass as its
# producer.  The loop-carried ALU link and the loop counter wait one
# cycle each.
        addiu t2, zero, 40
        addiu t0, zero, 5
loop:
        ext#0 t1, t0, zero
        ext#1 t3, t1, t0
        ext#0 t4, t3, zero
        addu  t0, t4, t1
        addiu t2, t2, -1
        bgtz  t2, loop
        halt
