// Fixture: UL-DET-003 -- thread_local state in simulation code (its
// value depends on which host thread ran the code).

thread_local int scratchDepth = 0;

int
enterScratch()
{
    return ++scratchDepth;
}
