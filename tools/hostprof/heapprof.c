/* heapprof — a live-heap profiler for boxes without valgrind or heaptrack.
 *
 *   cc -O2 -Wall -Werror -shared -fPIC -o heapprof.so tools/hostprof/heapprof.c -ldl
 *   LD_PRELOAD=./heapprof.so <cmd> [args..]
 *
 * Interposes malloc, calloc, realloc, free, posix_memalign, aligned_alloc
 * and memalign, and keeps the bytes live (requested sizes, every thread).
 * At exit it writes "# heap", then "peak <bytes> <blocks>": the most bytes
 * ever live at once and how many blocks held them; then one line per block
 * of at least $HEAPPROF_MIN bytes (default 65536) live at that peak,
 * largest first: its size, then its allocation backtrace, innermost frame
 * first, as hex offsets from the executable's load base (what addr2line
 * wants for a PIE; each a return address minus 1, so it names the call).
 * Frames outside the executable (libc, this library) are left out. The
 * report goes to $HEAPPROF_OUT if set, else stderr. Feed it to resolve.py.
 *
 * A realloc counts as a free and a new block. Only blocks of at least the
 * threshold pay for a backtrace; the rest cost one hash-table update.
 * x86-64 Linux, glibc.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>
#include <sched.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#define DEPTH 24  /* frames kept per large block */
#define LARGE 512 /* large blocks live at once */

struct large {
    uintptr_t p;
    size_t n;
    int depth;
    void *frames[DEPTH];
};

static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static void (*real_free)(void *);
static int (*real_posix_memalign)(void **, size_t, size_t);
static void *(*real_aligned_alloc)(size_t, size_t);
static void *(*real_memalign)(size_t, size_t);

/* dlsym itself may allocate before the real functions are known: those
 * few blocks come from this bump buffer and are never freed. */
static char boot[1 << 16];
static size_t boot_used;
static int resolving;

/* Set while this thread is inside the profiler (a backtrace, the report):
 * whatever it allocates then passes through untracked. */
static __thread int busy __attribute__((tls_model("initial-exec")));

static volatile char lock_flag;
static void lock(void) {
    while (__atomic_test_and_set(&lock_flag, __ATOMIC_ACQUIRE)) sched_yield();
}
static void unlock(void) { __atomic_clear(&lock_flag, __ATOMIC_RELEASE); }

/* Live blocks: an open-addressing map pointer -> size, linear probing,
 * backward-shift deletion, in memory mapped directly (never malloc'd). */
struct slot {
    uintptr_t p;
    size_t n;
};
static struct slot *table;
static size_t cap, used;
static size_t live, blocks, peak, peak_blocks, min_large = 65536;

/* Large blocks live now, and as they were at the peak. */
static struct large now_large[LARGE], peak_large[LARGE];
static size_t n_now, n_peak;
static int dirty; /* now_large changed since it was last copied */
static size_t dropped;

static size_t home(uintptr_t p) { return (p >> 4) * 0x9E3779B97F4A7C15ull >> 20 & (cap - 1); }

static void put(uintptr_t p, size_t n) {
    size_t i = home(p);
    while (table[i].p) i = (i + 1) & (cap - 1);
    table[i] = (struct slot){p, n};
}

static void grow(void) {
    struct slot *old = table;
    size_t old_cap = cap;
    cap = cap ? 2 * cap : 1 << 16;
    table = mmap(0, cap * sizeof *table, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (table == MAP_FAILED) abort();
    for (size_t i = 0; i < old_cap; i++)
        if (old[i].p) put(old[i].p, old[i].n);
    if (old) munmap(old, old_cap * sizeof *old);
}

/* Removes p from the map; returns its size, or -1 if it was not tracked. */
static size_t take(uintptr_t p) {
    if (!cap) return (size_t)-1;
    size_t i = home(p);
    while (table[i].p != p) {
        if (!table[i].p) return (size_t)-1;
        i = (i + 1) & (cap - 1);
    }
    size_t n = table[i].n;
    /* Shift later members of the probe run back into the hole. */
    for (size_t j = (i + 1) & (cap - 1); table[j].p; j = (j + 1) & (cap - 1)) {
        size_t h = home(table[j].p);
        if (((j - h) & (cap - 1)) >= ((j - i) & (cap - 1))) {
            table[i] = table[j];
            i = j;
        }
    }
    table[i].p = 0;
    return n;
}

static void resolve(void) {
    resolving = 1;
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_free = dlsym(RTLD_NEXT, "free");
    real_posix_memalign = dlsym(RTLD_NEXT, "posix_memalign");
    real_aligned_alloc = dlsym(RTLD_NEXT, "aligned_alloc");
    real_memalign = dlsym(RTLD_NEXT, "memalign");
    const char *min = getenv("HEAPPROF_MIN");
    if (min) min_large = strtoull(min, 0, 10);
    resolving = 0;
}

static void track(void *ptr, size_t n) {
    if (!ptr || busy) return;
    struct large big = {(uintptr_t)ptr, n, 0, {0}};
    if (n >= min_large) {
        busy = 1;
        big.depth = backtrace(big.frames, DEPTH);
        busy = 0;
    }
    lock();
    if (2 * (used + 1) > cap) grow();
    put((uintptr_t)ptr, n);
    used++;
    blocks++;
    live += n;
    if (n >= min_large) {
        if (n_now < LARGE) {
            now_large[n_now++] = big;
            dirty = 1;
        } else {
            dropped++;
        }
    }
    if (live > peak) {
        peak = live;
        peak_blocks = blocks;
        if (dirty) {
            memcpy(peak_large, now_large, n_now * sizeof *now_large);
            n_peak = n_now;
            dirty = 0;
        }
    }
    unlock();
}

/* Forgets ptr; returns its size, or -1 if it was not tracked. */
static size_t untrack(void *ptr) {
    if (!ptr || busy) return (size_t)-1;
    lock();
    size_t n = take((uintptr_t)ptr);
    if (n != (size_t)-1) {
        used--;
        blocks--;
        live -= n;
        if (n >= min_large)
            for (size_t i = 0; i < n_now; i++)
                if (now_large[i].p == (uintptr_t)ptr) {
                    now_large[i] = now_large[--n_now];
                    dirty = 1;
                    break;
                }
    }
    unlock();
    return n;
}

void *malloc(size_t n) {
    if (!real_malloc) {
        if (resolving) {
            void *p = boot + boot_used;
            boot_used += (n + 15) & ~(size_t)15;
            return boot_used <= sizeof boot ? p : 0;
        }
        resolve();
    }
    void *p = real_malloc(n);
    track(p, n);
    return p;
}

void *calloc(size_t k, size_t n) {
    if (!real_calloc) {
        if (resolving) return malloc(k * n); /* the boot buffer is zeroed */
        resolve();
    }
    void *p = real_calloc(k, n);
    track(p, k * n);
    return p;
}

void free(void *p) {
    if ((char *)p >= boot && (char *)p < boot + sizeof boot) return;
    if (!real_free) resolve();
    untrack(p);
    real_free(p);
}

void *realloc(void *old, size_t n) {
    if (!real_realloc) resolve();
    if ((char *)old >= boot && (char *)old < boot + sizeof boot) {
        size_t room = (size_t)(boot + sizeof boot - (char *)old);
        void *p = malloc(n);
        if (p) memcpy(p, old, n < room ? n : room);
        return p;
    }
    size_t was = untrack(old);
    void *p = real_realloc(old, n);
    if (p) track(p, n);
    else if (n && was != (size_t)-1) track(old, was); /* a failed realloc keeps old */
    return p;
}

int posix_memalign(void **out, size_t align, size_t n) {
    if (!real_posix_memalign) resolve();
    int err = real_posix_memalign(out, align, n);
    if (!err) track(*out, n);
    return err;
}

void *aligned_alloc(size_t align, size_t n) {
    if (!real_aligned_alloc) resolve();
    void *p = real_aligned_alloc(align, n);
    track(p, n);
    return p;
}

void *memalign(size_t align, size_t n) {
    if (!real_memalign) resolve();
    void *p = real_memalign(align, n);
    track(p, n);
    return p;
}

/* The executable's segments span [lo, hi) once loaded at base. */
static uintptr_t base, lo, hi;
static int exe_range(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    base = info->dlpi_addr;
    lo = UINTPTR_MAX;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD) continue;
        if (base + ph->p_vaddr < lo) lo = base + ph->p_vaddr;
        if (base + ph->p_vaddr + ph->p_memsz > hi) hi = base + ph->p_vaddr + ph->p_memsz;
    }
    return 1; /* the first object is the executable */
}

static int larger(const void *a, const void *b) {
    size_t x = ((const struct large *)a)->n, y = ((const struct large *)b)->n;
    return (x < y) - (x > y);
}

__attribute__((destructor)) static void report(void) {
    busy = 1;
    lock();
    dl_iterate_phdr(exe_range, 0);
    const char *path = getenv("HEAPPROF_OUT");
    FILE *out = path ? fopen(path, "w") : 0;
    if (!out) out = stderr;
    qsort(peak_large, n_peak, sizeof *peak_large, larger);
    fprintf(out, "# heap\npeak %zu %zu\n", peak, peak_blocks);
    for (size_t i = 0; i < n_peak; i++) {
        fprintf(out, "%zu", peak_large[i].n);
        for (int f = 0; f < peak_large[i].depth; f++) {
            uintptr_t a = (uintptr_t)peak_large[i].frames[f] - 1;
            if (a >= lo && a < hi) fprintf(out, " %lx", (unsigned long)(a - base));
        }
        fputc('\n', out);
    }
    if (dropped) fprintf(stderr, "heapprof: %zu large blocks past the first %d went unrecorded\n", dropped, LARGE);
    if (out != stderr) fclose(out);
    unlock();
}
