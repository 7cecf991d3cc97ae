"""Anatomy of the Helios fusion predictor (UCH + tournament FP).

Drives the Section IV-A structures directly — no pipeline — so you can
watch a fuseable pair being *discovered* by the Unfused Committed
History at commit, *trained* into the Fusion Predictor, and finally
*predicted* at decode once confidence saturates.

Run:  python examples/predictor_anatomy.py
"""

from repro.predictors import FusionPredictor, UnfusedCommittedHistory

LINE = 0x20_0000
HEAD_PC, TAIL_PC = 0x1_0000, 0x1_0010
DISTANCE = 4  # three catalyst u-ops between the nucleii


def main():
    uch = UnfusedCommittedHistory(entries=6)
    fp = FusionPredictor()
    commit_number = 0

    print("Replaying commits of an unfused load pair (distance %d):\n"
          % DISTANCE)
    for occurrence in range(1, 5):
        # The head nucleus retires: inserted into the UCH (miss).
        match = uch.observe(HEAD_PC, LINE, commit_number)
        assert match is None
        # ... the catalyst retires (non-memory, does not touch the UCH),
        commit_number += DISTANCE
        # ... then the tail retires and hits the head's line.
        match = uch.observe(TAIL_PC, LINE + 8, commit_number)
        print("occurrence %d: UCH match -> head pc=0x%x distance=%d"
              % (occurrence, match.head_pc, match.distance))
        fp.train(TAIL_PC, ghr=0, distance=match.distance)
        prediction = fp.predict(TAIL_PC, ghr=0)
        if prediction is None:
            print("  FP: confidence still building, no prediction yet")
        else:
            print("  FP: PREDICTS distance %d (confidence saturated)"
                  % prediction.distance)
        commit_number += 10  # unrelated committed work

    prediction = fp.predict(TAIL_PC, ghr=0)
    print("\nAt Decode, the tail's PC now yields distance %d: the µ-op"
          % prediction.distance)
    print("%d slots earlier in the Allocation Queue becomes the head"
          % prediction.distance)
    print("nucleus of a pending NCSF'd µ-op (validated at Rename/Dispatch).")

    print("\nNow a fusion misprediction (case 5: the pair spans >64B):")
    fp.resolve(prediction, correct=False)
    print("  confidence reset ->",
          "no prediction" if fp.predict(TAIL_PC, ghr=0) is None
          else "still predicting?!")


if __name__ == "__main__":
    main()
