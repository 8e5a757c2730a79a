/* A sampling profiler in one preloaded file: `make profile WORKLOAD=...`.
 *
 * LD_PRELOADed into the benchmark harness. The constructor arms
 * ITIMER_PROF (process CPU time, PROF_HZ samples a second, default 250) and
 * a SIGPROF handler that stores, into an array allocated up front: the
 * thread id, RIP, the word at RSP (the return address when the sample lands
 * in a frameless leaf such as libc's memcmp) and the return addresses along
 * the RBP chain. At exit the samples and /proc/self/maps go to $PROF_OUT as
 * text, for scripts/prof/symbolize.py. x86-64 Linux only. See README.md.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1L << 18)
#define MAX_FRAMES 24
#define STACK_SPAN (1UL << 20)

struct sample {
    int tid, depth;
    uintptr_t pc[2 + MAX_FRAMES];
};

static struct sample *samples;
static long taken; /* may run past MAX_SAMPLES: the excess is counted, not stored */

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    const greg_t *regs = ((ucontext_t *)context)->uc_mcontext.gregs;
    uintptr_t rsp = regs[REG_RSP], rbp = regs[REG_RBP];
    long slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) return;
    struct sample *s = &samples[slot];
    int depth = 0;
    s->tid = (int)syscall(SYS_gettid);
    s->pc[depth++] = regs[REG_RIP];
    s->pc[depth++] = *(uintptr_t *)rsp;
    /* A frame is two words, {caller's RBP, return address}. Code built
     * without frame pointers leaves anything in RBP, so each link must lie
     * on this stack, above the last one, before it is read. */
    while (depth < 2 + MAX_FRAMES && rbp >= rsp && rbp < rsp + STACK_SPAN && rbp % 8 == 0) {
        const uintptr_t *frame = (const uintptr_t *)rbp;
        s->pc[depth++] = frame[1];
        if (frame[0] <= rbp) break;
        rbp = frame[0];
    }
    s->depth = depth;
}

static void write_profile(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.samples", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    long stored = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "pid %d taken %ld stored %ld\n", (int)getpid(), taken, stored);
    for (long i = 0; i < stored; i++) {
        fprintf(out, "sample %d", samples[i].tid);
        for (int d = 0; d < samples[i].depth; d++) fprintf(out, " %lx", (unsigned long)samples[i].pc[d]);
        fputc('\n', out);
    }
    fclose(out);
    fclose(maps);
}

__attribute__((constructor)) static void arm(void) {
    unsetenv("LD_PRELOAD"); /* children (the harness asks `git` for its revision) run unprofiled */
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    if (!samples) return;
    const char *hz_text = getenv("PROF_HZ");
    long hz = hz_text ? atol(hz_text) : 250;
    if (hz < 2 || hz > 10000) hz = 250;
    struct sigaction action = {0};
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(write_profile);
}
