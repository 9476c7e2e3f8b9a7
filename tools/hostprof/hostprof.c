/* hostprof — a ptrace profiler for boxes without perf, gdb or valgrind.
 *
 *   hostprof sample <interval_us> <out> -- <cmd> [args..]
 *       interrupts <cmd> every <interval_us> µs and records where it was.
 *   hostprof step <warmup_ms> <count> <out> -- <cmd> [args..]
 *       lets <cmd> run <warmup_ms> ms, then single-steps <count>
 *       instructions and records every one: exact instruction counts and,
 *       as hits on a function's first address, exact call counts.
 *
 * <out> gets "# <mode>", then one "<hex offset> <count>" line per distinct
 * address, offsets relative to the executable's load base (what addr2line
 * wants for a PIE); addresses outside the executable (libc, vdso) fold into
 * offset 0. Only the main thread is followed. Feed <out> to resolve.py.
 * x86-64 Linux.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

/* The executable's mappings span [lo, hi): its lines in /proc/<pid>/maps. */
static void exe_range(pid_t pid, unsigned long long *lo, unsigned long long *hi) {
    char path[64], exe[4096], line[4352];
    snprintf(path, sizeof path, "/proc/%d/exe", pid);
    ssize_t n = readlink(path, exe, sizeof exe - 1);
    exe[n < 0 ? 0 : n] = 0;
    snprintf(path, sizeof path, "/proc/%d/maps", pid);
    FILE *maps = fopen(path, "r");
    for (*lo = *hi = 0; maps && fgets(line, sizeof line, maps);) {
        unsigned long long a, b;
        if (sscanf(line, "%llx-%llx", &a, &b) == 2 && strstr(line, exe)) {
            if (!*hi) *lo = a;
            *hi = b;
        }
    }
    if (maps) fclose(maps);
}

static int ascending(const void *a, const void *b) {
    unsigned long long x = *(const unsigned long long *)a, y = *(const unsigned long long *)b;
    return (x > y) - (x < y);
}

int main(int argc, char **argv) {
    int step = argc > 1 && !strcmp(argv[1], "step"), cmd = step ? 6 : 5;
    if (argc <= cmd || strcmp(argv[cmd - 1], "--") || (!step && strcmp(argv[1], "sample"))) {
        fprintf(stderr, "usage: hostprof sample <interval_us> <out> -- cmd [args..]\n"
                        "       hostprof step <warmup_ms> <count> <out> -- cmd [args..]\n");
        return 2;
    }
    useconds_t wait_us = atol(argv[2]) * (step ? 1000 : 1);
    size_t budget = step ? strtoull(argv[3], 0, 10) : (size_t)-1;
    pid_t pid = fork();
    if (!pid) {
        raise(SIGSTOP); /* wait to be seized */
        execvp(argv[cmd], argv + cmd);
        perror(argv[cmd]);
        _exit(127);
    }
    int st;
    waitpid(pid, &st, WUNTRACED);
    if (ptrace(PTRACE_SEIZE, pid, 0, PTRACE_O_TRACEEXEC | PTRACE_O_EXITKILL)) {
        perror("PTRACE_SEIZE");
        return 1;
    }
    kill(pid, SIGCONT);
    unsigned long long lo = 0, hi = 0, *at = 0;
    size_t n = 0, cap = 0;
    for (int stepping = 0; n < budget;) {
        if (waitpid(pid, &st, 0) < 0 || WIFEXITED(st) || WIFSIGNALED(st)) break;
        int sig = WSTOPSIG(st), event = st >> 16;
        if (event == PTRACE_EVENT_EXEC) exe_range(pid, &lo, &hi);
        if (event == PTRACE_EVENT_STOP || (stepping && sig == SIGTRAP && !event)) {
            /* Our interrupt, or one single step. */
            struct user_regs_struct regs;
            if (hi && !ptrace(PTRACE_GETREGS, pid, 0, &regs)) {
                if (n == cap) at = realloc(at, (cap = cap ? 2 * cap : 1 << 16) * sizeof *at);
                at[n++] = regs.rip >= lo && regs.rip < hi ? regs.rip - lo : 0;
                stepping = step;
            }
            sig = 0;
        } else if (event || sig == SIGSTOP || sig == SIGCONT) {
            sig = 0; /* the seize handshake and the exec stop deliver nothing */
        }
        ptrace(stepping ? PTRACE_SINGLESTEP : PTRACE_CONT, pid, 0, sig);
        if (!stepping && hi) {
            usleep(wait_us);
            ptrace(PTRACE_INTERRUPT, pid, 0, 0);
        }
    }
    kill(pid, SIGKILL);
    FILE *out = fopen(argv[cmd - 2], "w");
    if (!out) {
        perror(argv[cmd - 2]);
        return 1;
    }
    fprintf(out, "# %s\n", argv[1]);
    qsort(at, n, sizeof *at, ascending);
    for (size_t i = 0, run; i < n; i += run) {
        for (run = 1; i + run < n && at[i + run] == at[i]; run++) {}
        fprintf(out, "%llx %zu\n", at[i], run);
    }
    fclose(out);
    fprintf(stderr, "hostprof: %zu %s, load base %llx\n", n, step ? "instructions" : "samples", lo);
    return 0;
}
