/* hostprof — a ptrace profiler for boxes without perf, gdb or valgrind.
 *
 *   hostprof sample <interval_us> <out> -- <cmd> [args..]
 *       interrupts <cmd> every <interval_us> µs and records where it was.
 *   hostprof step <warmup_ms> <count> <out> -- <cmd> [args..]
 *       lets <cmd> run <warmup_ms> ms, then single-steps <count>
 *       instructions and records every one: exact instruction counts and,
 *       as hits on a function's first address, exact call counts.
 *   hostprof window <offset> <skip> <count> <out> -- <cmd> [args..]
 *       plants a breakpoint at <offset> (hex, a function's address as `nm`
 *       prints it), lets <skip> calls pass, then single-steps from the
 *       entry of call <skip> to the entry of call <skip> + <count> and
 *       records every instruction: exact counts over a fixed span of the
 *       program's own work (with a once-per-cycle function, a fixed span
 *       of simulated cycles), comparable across two builds. A <count> of 0
 *       steps call <skip> alone, from its entry to its return.
 *   hostprof count -- <cmd> [args..]
 *       runs <cmd> under user-mode hardware counters (perf_event_open,
 *       inherited by its threads and children, enabled at exec) and prints
 *       cycles, instructions, branches, branch misses, L1d read misses and
 *       front-end stall cycles. Counts settle where sampling cannot: the
 *       instructions of one binary repeat within about 1 %. Needs a PMU the
 *       kernel exposes and perf_event_paranoid <= 2; an event the machine
 *       lacks is reported as missing, not as zero.
 *
 * <out> gets "# <mode>", then one "<hex offset> <count>" line per distinct
 * address, offsets relative to the executable's load base (what addr2line
 * wants for a PIE); addresses outside the executable (libc, vdso) fold into
 * offset 0. Only the main thread is followed, and `window` assumes <cmd>
 * runs its breakpointed function on the main thread alone. Feed <out> to
 * resolve.py. x86-64 Linux.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <linux/perf_event.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/syscall.h>
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

/* The recorded instruction pointers, as offsets from the load base. */
static unsigned long long lo, hi, *at;
static size_t n, cap;

static void record(unsigned long long rip) {
    if (n == cap) at = realloc(at, (cap = cap ? 2 * cap : 1 << 16) * sizeof *at);
    at[n++] = rip >= lo && rip < hi ? rip - lo : 0;
}

/* `sample` and `step`: interrupt every wait_us, or single-step budget
 * instructions after the first interrupt. */
static void sample_or_step(pid_t pid, int step, useconds_t wait_us, size_t budget) {
    int st;
    for (int stepping = 0; n < budget;) {
        if (waitpid(pid, &st, 0) < 0 || WIFEXITED(st) || WIFSIGNALED(st)) break;
        int sig = WSTOPSIG(st), event = st >> 16;
        if (event == PTRACE_EVENT_EXEC) exe_range(pid, &lo, &hi);
        if (event == PTRACE_EVENT_STOP || (stepping && sig == SIGTRAP && !event)) {
            /* Our interrupt, or one single step. */
            struct user_regs_struct regs;
            if (hi && !ptrace(PTRACE_GETREGS, pid, 0, &regs)) {
                record(regs.rip);
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
}

/* `window`: an int3 at lo + off; `skip` hits step over it, the next one
 * removes it and starts single-stepping until `count` more entries, or,
 * for `count` 0, until that call returns (its `ret` pops the stack above
 * where it stood at the entry). */
static void window(pid_t pid, unsigned long long off, size_t skip, size_t count) {
    unsigned long long bp = 0;
    long orig = 0;
    size_t calls = 0;
    int st;
    for (;;) {
        if (waitpid(pid, &st, 0) < 0 || WIFEXITED(st) || WIFSIGNALED(st)) return;
        int sig = WSTOPSIG(st), event = st >> 16;
        struct user_regs_struct regs;
        if (event == PTRACE_EVENT_EXEC) {
            exe_range(pid, &lo, &hi);
            bp = lo + off;
            orig = ptrace(PTRACE_PEEKTEXT, pid, bp, 0);
            ptrace(PTRACE_POKETEXT, pid, bp, (orig & ~0xffL) | 0xcc);
            sig = 0;
        } else if (bp && sig == SIGTRAP && !event && !ptrace(PTRACE_GETREGS, pid, 0, &regs) &&
                   regs.rip == bp + 1) {
            /* Our int3: put the instruction back and rewind onto it. */
            ptrace(PTRACE_POKETEXT, pid, bp, orig);
            regs.rip = bp;
            ptrace(PTRACE_SETREGS, pid, 0, &regs);
            if (calls++ == skip) break;
            ptrace(PTRACE_SINGLESTEP, pid, 0, 0);
            if (waitpid(pid, &st, 0) < 0 || WIFEXITED(st) || WIFSIGNALED(st)) return;
            ptrace(PTRACE_POKETEXT, pid, bp, (orig & ~0xffL) | 0xcc);
            sig = 0;
        } else if (event || sig == SIGSTOP || sig == SIGCONT) {
            sig = 0; /* the seize handshake delivers nothing */
        }
        ptrace(PTRACE_CONT, pid, 0, sig);
    }
    unsigned long long sp = 0;
    for (calls = 0;;) {
        struct user_regs_struct regs;
        if (ptrace(PTRACE_GETREGS, pid, 0, &regs)) return;
        if (!sp) sp = regs.rsp; /* at the entry: the return address's slot */
        if (count ? regs.rip == bp && calls++ == count : regs.rsp > sp) return;
        record(regs.rip);
        ptrace(PTRACE_SINGLESTEP, pid, 0, 0);
        if (waitpid(pid, &st, 0) < 0 || WIFEXITED(st) || WIFSIGNALED(st)) return;
    }
}

/* `count`: the events, in print order. */
static const struct {
    const char *name;
    uint32_t type;
    uint64_t config;
} events[] = {
    {"cycles", PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {"instructions", PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {"branches", PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS},
    {"branch-misses", PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {"L1d-read-misses", PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_L1D | PERF_COUNT_HW_CACHE_OP_READ << 8 |
         PERF_COUNT_HW_CACHE_RESULT_MISS << 16},
    {"frontend-stall-cycles", PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_FRONTEND},
};
#define EVENTS (sizeof events / sizeof *events)

/* Opens every event on the stopped child; returns how many opened. */
static int open_counters(pid_t pid, int *fd) {
    int opened = 0, denied = 0;
    for (size_t i = 0; i < EVENTS; i++) {
        struct perf_event_attr attr;
        memset(&attr, 0, sizeof attr);
        attr.size = sizeof attr;
        attr.type = events[i].type;
        attr.config = events[i].config;
        attr.disabled = 1;
        attr.enable_on_exec = 1;
        attr.inherit = 1;
        attr.exclude_kernel = 1;
        attr.exclude_hv = 1;
        attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
        fd[i] = (int)syscall(SYS_perf_event_open, &attr, pid, -1, -1, 0);
        if (fd[i] >= 0) {
            opened++;
        } else if (errno == EACCES || errno == EPERM) {
            denied = 1;
        } else {
            fprintf(stderr, "hostprof: %s: missing on this machine (%s)\n", events[i].name,
                    strerror(errno));
        }
    }
    if (denied) {
        FILE *f = fopen("/proc/sys/kernel/perf_event_paranoid", "r");
        int level = -99;
        if (f) {
            if (fscanf(f, "%d", &level) != 1) level = -99;
            fclose(f);
        }
        fprintf(stderr,
                "hostprof: perf_event_paranoid is %d: counting forbidden (user-mode counts of "
                "one's own processes need <= 2)\n",
                level);
    }
    return opened;
}

/* Prints each opened counter, scaled up if the kernel multiplexed it. */
static void print_counters(const int *fd) {
    double count[EVENTS];
    int have[EVENTS] = {0};
    for (size_t i = 0; i < EVENTS; i++) {
        uint64_t v[3];
        if (fd[i] < 0 || read(fd[i], v, sizeof v) != (ssize_t)sizeof v || !v[2]) continue;
        count[i] = (double)v[0] * ((double)v[1] / (double)v[2]);
        have[i] = 1;
        fprintf(stderr, "hostprof: %22.0f  %s%s\n", count[i], events[i].name,
                v[1] == v[2] ? "" : "  (multiplexed, scaled)");
    }
    if (have[0] && have[1]) fprintf(stderr, "hostprof: IPC %.3f\n", count[1] / count[0]);
    if (have[2] && have[3])
        fprintf(stderr, "hostprof: branch misses %.2f %% of branches\n",
                100 * count[3] / count[2]);
    if (have[0] && have[5])
        fprintf(stderr, "hostprof: front-end stalls %.1f %% of cycles\n",
                100 * count[5] / count[0]);
}

int main(int argc, char **argv) {
    const char *mode = argc > 1 ? argv[1] : "";
    int step = !strcmp(mode, "step"), win = !strcmp(mode, "window"), cnt = !strcmp(mode, "count");
    int cmd = win ? 7 : step ? 6 : cnt ? 3 : 5;
    if (argc <= cmd || strcmp(argv[cmd - 1], "--") ||
        !(step || win || cnt || !strcmp(mode, "sample"))) {
        fprintf(stderr, "usage: hostprof sample <interval_us> <out> -- cmd [args..]\n"
                        "       hostprof step <warmup_ms> <count> <out> -- cmd [args..]\n"
                        "       hostprof window <offset> <skip> <count> <out> -- cmd [args..]\n"
                        "       hostprof count -- cmd [args..]\n");
        return 2;
    }
    pid_t pid = fork();
    if (!pid) {
        raise(SIGSTOP); /* wait to be seized */
        execvp(argv[cmd], argv + cmd);
        perror(argv[cmd]);
        _exit(127);
    }
    int st;
    waitpid(pid, &st, WUNTRACED);
    if (cnt) {
        int fd[EVENTS];
        int opened = open_counters(pid, fd);
        kill(pid, SIGCONT);
        if (waitpid(pid, &st, 0) < 0) return 1;
        if (!opened) {
            fprintf(stderr, "hostprof: no counter could be opened; nothing counted\n");
            return 1;
        }
        print_counters(fd);
        return WIFEXITED(st) ? WEXITSTATUS(st) : 1;
    }
    if (ptrace(PTRACE_SEIZE, pid, 0, PTRACE_O_TRACEEXEC | PTRACE_O_EXITKILL)) {
        perror("PTRACE_SEIZE");
        return 1;
    }
    kill(pid, SIGCONT);
    if (win)
        window(pid, strtoull(argv[2], 0, 16), strtoull(argv[3], 0, 10), strtoull(argv[4], 0, 10));
    else
        sample_or_step(pid, step, atol(argv[2]) * (step ? 1000 : 1),
                       step ? strtoull(argv[3], 0, 10) : (size_t)-1);
    kill(pid, SIGKILL);
    FILE *out = fopen(argv[cmd - 2], "w");
    if (!out) {
        perror(argv[cmd - 2]);
        return 1;
    }
    /* resolve.py reads a window histogram exactly as a step one. */
    fprintf(out, "# %s\n", win ? "step" : mode);
    qsort(at, n, sizeof *at, ascending);
    for (size_t i = 0, run; i < n; i += run) {
        for (run = 1; i + run < n && at[i + run] == at[i]; run++) {}
        fprintf(out, "%llx %zu\n", at[i], run);
    }
    fclose(out);
    fprintf(stderr, "hostprof: %zu %s, load base %llx\n", n, step || win ? "instructions" : "samples",
            lo);
    return 0;
}
