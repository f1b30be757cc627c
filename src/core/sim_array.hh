/**
 * @file
 * SimArray: a typed array living in simulated virtual memory.
 *
 * Element data is held in host memory (so kernels compute real
 * results), while every element access issues a traced load/store at
 * the array's simulated virtual address through the machine's MMU.
 */

#ifndef GPSM_CORE_SIM_ARRAY_HH
#define GPSM_CORE_SIM_ARRAY_HH

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/machine.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace gpsm::core
{

/** Attribution tags: one per graph data structure (paper Fig. 4). */
enum ArrayTag : unsigned
{
    TagOther = 0,
    TagVertex = 1,
    TagEdge = 2,
    TagValues = 3,
    TagProperty = 4,
};

const char *arrayTagName(unsigned tag);

/** Constructor tag selecting file-backed (out-of-core) storage. */
struct FileBackedTag
{
};

/**
 * Simulated-memory array of trivially copyable T.
 *
 * The backing VMA is created at construction (no physical memory is
 * consumed until first touch) and released at destruction; destroy all
 * SimArrays before their SimMachine.
 */
template <typename T>
class SimArray
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    /**
     * @param giant Back the array with hugetlbfs-style giant pages
     *        (eagerly reserved and mapped; fatal when the node's pool
     *        cannot cover it).
     */
    SimArray(SimMachine &owner, size_t count, const std::string &name,
             unsigned array_tag, bool giant = false)
        : machine(&owner), host(count), tag(array_tag), isGiant(giant)
    {
        GPSM_ASSERT(count > 0);
        base = giant
                   ? owner.space().mmapGiant(count * sizeof(T), name)
                   : owner.space().mmap(count * sizeof(T), name);
    }

    /**
     * File-backed variant: the VMA maps a file object in the
     * machine-wide AddressSpaceCache, so pages fault in on demand and
     * evict (with writeback when dirty) under memory pressure instead
     * of failing allocation. Element data still lives in @c host, so
     * kernel results are bit-identical to the anonymous-backed run.
     */
    SimArray(SimMachine &owner, size_t count, const std::string &name,
             unsigned array_tag, FileBackedTag)
        : machine(&owner), host(count), tag(array_tag)
    {
        GPSM_ASSERT(count > 0);
        mem::AddressSpaceCache &fc = owner.fileCache();
        base = owner.space().mmapFile(count * sizeof(T), name, fc,
                                      fc.createFile(name));
    }

    ~SimArray()
    {
        if (machine != nullptr)
            machine->space().munmap(base);
    }

    SimArray(SimArray &&other) noexcept
        : machine(other.machine), host(std::move(other.host)),
          base(other.base), tag(other.tag), isGiant(other.isGiant)
    {
        other.machine = nullptr;
    }

    SimArray(const SimArray &) = delete;
    SimArray &operator=(const SimArray &) = delete;
    SimArray &operator=(SimArray &&) = delete;

    /** Traced element read. */
    T
    get(size_t i)
    {
        trace(i, false);
        return host[i];
    }

    /**
     * Traced read of elements @p i and @p i + 1 — the CSR offset-pair
     * pattern (a vertex's edge range). Goes through the MMU's batched
     * translateRun, so the adjacent element reuses the translation the
     * first one established; counters match two get() calls exactly.
     */
    std::pair<T, T>
    getPair(size_t i)
    {
        machine->mmu().translateRun(base + i * sizeof(T), 2, sizeof(T),
                                    /*write=*/false, tag);
        return {host[i], host[i + 1]};
    }

    /** Traced element write. */
    void
    set(size_t i, const T &value)
    {
        trace(i, true);
        host[i] = value;
    }

    /** Traced read-modify-write (single translation, like a real RMW
     *  to one cache line). */
    void
    add(size_t i, const T &value)
    {
        trace(i, true);
        host[i] += value;
    }

    /** @name Untraced access (verification / result extraction) @{ */
    const std::vector<T> &raw() const { return host; }
    std::vector<T> &raw() { return host; }
    /** @} */

    size_t size() const { return host.size(); }
    std::uint64_t bytes() const { return host.size() * sizeof(T); }
    Addr vaddr() const { return base; }
    unsigned arrayTag() const { return tag; }

    /**
     * madvise(MADV_HUGEPAGE) the first @p fraction of the array
     * (paper §5.2's selective THP: length = s% of the property
     * array). The length is rounded up to huge-page granularity — a
     * shorter advice window could never produce a huge page, and the
     * paper's operator works in whole huge pages. Call before the
     * array is first touched.
     */
    void
    adviseHugeFraction(double fraction)
    {
        GPSM_ASSERT(fraction >= 0.0 && fraction <= 1.0);
        if (fraction == 0.0 || isGiant)
            return; // giant-backed arrays need no THP advice
        const auto huge = machine->space().hugePageBytes();
        const std::uint64_t len = alignUp(
            static_cast<std::uint64_t>(fraction * bytes()), huge);
        machine->space().madviseHuge(base,
                                     std::min<std::uint64_t>(len,
                                                             bytes()));
    }

    /**
     * Write every element sequentially through traced stores — the
     * initialization/loading pattern of paper Fig. 4 lines 1-5. This
     * is what demand-faults the array's pages in.
     *
     * Uses the MMU's bulk translateRun (identical counter semantics to
     * per-element set(), without the per-element call overhead); the
     * host-side writes are untraced and happen afterwards, which is
     * unobservable to the simulation.
     */
    void
    fill(const T &value)
    {
        machine->mmu().translateRun(base, host.size(), sizeof(T),
                                    /*write=*/true, tag);
        std::fill(host.begin(), host.end(), value);
    }

    /** Traced sequential copy-in from host data (file load). */
    void
    loadFrom(const std::vector<T> &data)
    {
        GPSM_ASSERT(data.size() == host.size());
        machine->mmu().translateRun(base, host.size(), sizeof(T),
                                    /*write=*/true, tag);
        std::copy(data.begin(), data.end(), host.begin());
    }

  private:
    void
    trace(size_t i, bool write)
    {
        machine->mmu().access(base + i * sizeof(T), write, tag);
    }

    SimMachine *machine;
    std::vector<T> host;
    Addr base = 0;
    unsigned tag;
    bool isGiant = false;
};

} // namespace gpsm::core

#endif // GPSM_CORE_SIM_ARRAY_HH
