/**
 * @file
 * Swap backing store: slot allocation and occupancy accounting.
 */

#ifndef GPSM_MEM_SWAP_DEVICE_HH
#define GPSM_MEM_SWAP_DEVICE_HH

#include <cstdint>
#include <vector>

#include "util/stats.hh"
#include "util/units.hh"

namespace gpsm::mem
{

/**
 * Narrow fault-injection hook for the swap device: a stalled device
 * refuses new slot allocations, so swap-outs fail as they do when an
 * overloaded disk makes the swap path time out. Implemented by
 * fault::FaultSession; absent by default.
 */
class SwapInterceptor
{
  public:
    virtual ~SwapInterceptor() = default;

    /** Should this slot allocation be refused (device stalled)? */
    virtual bool stallSlotAllocation() = 0;
};

/**
 * Models the secondary-storage swap area. Time-free like the rest of
 * the mem layer: the VM layer charges swap-in/out costs; this class
 * only tracks slots so oversubscription is bounded and accounted.
 */
class SwapDevice
{
  public:
    /** @param bytes Device capacity; @param page_bytes slot size. */
    SwapDevice(std::uint64_t bytes, std::uint64_t page_bytes)
        : totalSlots(bytes / page_bytes)
    {
    }

    /** Install (or, with nullptr, remove) the fault-injection hook. */
    void setInterceptor(SwapInterceptor *hook) { interceptor = hook; }

    /** Reserve a slot for a swapped-out page; ~0 when device is full
     *  or an injected stall window is active. */
    std::uint64_t
    allocSlot()
    {
        std::uint64_t slot;
        if (interceptor != nullptr &&
            interceptor->stallSlotAllocation()) {
            ++stalledAllocs;
            return ~0ull;
        }
        if (!freeSlots.empty()) {
            slot = freeSlots.back();
            freeSlots.pop_back();
        } else if (nextSlot < totalSlots) {
            slot = nextSlot++;
        } else {
            return ~0ull;
        }
        ++pagesOut;
        return slot;
    }

    /** Release a slot after swap-in (or on unmap of a swapped page). */
    void
    freeSlot(std::uint64_t slot)
    {
        freeSlots.push_back(slot);
        ++pagesIn;
    }

    std::uint64_t usedSlots() const
    {
        return nextSlot - freeSlots.size();
    }

    Counter pagesOut;
    Counter pagesIn;
    Counter stalledAllocs; ///< slot requests refused by a fault window

  private:
    std::uint64_t totalSlots;
    std::uint64_t nextSlot = 0;
    std::vector<std::uint64_t> freeSlots;
    SwapInterceptor *interceptor = nullptr;
};

} // namespace gpsm::mem

#endif // GPSM_MEM_SWAP_DEVICE_HH
