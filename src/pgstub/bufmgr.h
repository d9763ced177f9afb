// Buffer manager: fixed pool of page frames with clock-sweep replacement,
// pin counts, and a tag hash table (PostgreSQL's bufmgr.c analog). Every
// PASE tuple access goes Pin -> line-pointer lookup -> Unpin; this
// indirection — even with a 100% hit rate — is the paper's RC#2.
//
// Concurrency follows PostgreSQL's shape, so the per-access cost is the
// pin and lookup themselves, not a pool-wide lock:
//
// - Mapping table: kNumPartitions hash partitions of the tag table, each
//   under its own SharedMutex (PostgreSQL's BufMappingLock partitions).
//   A hit looks its tag up under the partition's *shared* lock.
// - Frame state: each frame's refcount, usage count (cap 5) and
//   valid/dirty flags sit in one atomic word, in a descriptor padded to a
//   cache line (PostgreSQL's BufferDesc state / BufferDescPadded). A hit
//   pins with a CAS while still holding the partition lock; Unpin is an
//   atomic decrement and takes no lock at all.
// - Allocation mutex (`alloc_mu_`): misses, NewPage, the clock sweep,
//   eviction, FlushAll and InvalidateRelation serialize on it, and every
//   StorageManager call (not thread-safe) runs under it. The hit path never
//   takes it. Every change to the mapping table, to a frame's tag or to its
//   valid bit happens under it, so holding it freezes the mapping.
// - Eviction removes a victim's tag under that tag's partition lock held
//   *exclusively* and re-checks there that the frame is still unpinned and
//   untouched. A pinner holds the shared lock from lookup to increment, so
//   it can never sit between the two while its frame is evicted.
//
// Lock order: alloc_mu_, then partition locks in ascending index. Only the
// whole-pool operations hold more than one partition lock at a time.
//
// Dirty-unpin rule: a dirty Unpin sets the dirty flag and logs the page's
// full-page image (FPI) *before* it releases its pin. Anyone who then sees
// the refcount at 0 (an evictor, FlushAll) also sees the dirty flag, with
// the FPI already in the WAL, so WAL-before-data holds.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "pgstub/page.h"
#include "pgstub/smgr.h"
#include "pgstub/wal.h"

namespace vecdb::pgstub {

/// A pinned page frame. Valid until Unpin; `data` points at page_size bytes.
struct BufferHandle {
  int32_t frame = -1;
  char* data = nullptr;

  bool valid() const { return frame >= 0; }
};

/// Hit/miss/eviction counters (diagnostics and tests).
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t pins = 0;
};

/// Clock-sweep buffer pool over a StorageManager.
///
/// Thread-safe, with the lock layout described at the top of this file.
/// Page contents are read and written by pin holders outside every lock;
/// the pin count is what keeps a frame from being reused underneath them.
/// In the paper's experiments the pool is sized to hold the whole dataset,
/// so after warm-up every access is a hit — yet still pays hash lookup,
/// pinning, and line-pointer indirection. The lock discipline is
/// statically checked under VECDB_TSA.
class BufferManager {
 public:
  /// Mapping-table partitions (PostgreSQL's NUM_BUFFER_PARTITIONS is
  /// 128). FlushAll and InvalidateRelation hold every partition at once,
  /// and ThreadSanitizer tracks at most 64 locks held by one thread, so
  /// the count stays below that; with a handful of sessions, 32 already
  /// makes two different pages sharing a partition rare.
  static constexpr int kPartitionBits = 5;
  static constexpr size_t kNumPartitions = size_t{1} << kPartitionBits;

  /// `pool_pages` frames over `smgr` (not owned; must outlive this).
  BufferManager(StorageManager* smgr, size_t pool_pages);

  /// Pins (reading from disk on miss) block `block` of `rel`.
  /// Fails with ResourceExhausted when every frame is pinned.
  Result<BufferHandle> Pin(RelId rel, BlockId block) VECDB_EXCLUDES(alloc_mu_);

  /// Extends the relation by one zero-initialized page and pins it.
  /// The caller must PageView::Init the page.
  Result<std::pair<BlockId, BufferHandle>> NewPage(RelId rel)
      VECDB_EXCLUDES(alloc_mu_);

  /// Releases a pin; `dirty` marks the page for write-back. When a WAL is
  /// attached, dirty unpins log a full-page image before the pin is
  /// released (WAL-before-data); logging failures surface via wal_error().
  void Unpin(const BufferHandle& handle, bool dirty)
      VECDB_EXCLUDES(wal_error_mu_);

  /// Attaches a write-ahead log (not owned; may be null to detach).
  void SetWal(WalManager* wal) { wal_.store(wal, std::memory_order_release); }

  /// First WAL logging failure observed by Unpin, if any (a snapshot).
  Status wal_error() const VECDB_EXCLUDES(wal_error_mu_) {
    MutexLock lock(wal_error_mu_);
    return wal_error_;
  }

  /// Writes all dirty pages back to storage. Fails with InvalidArgument
  /// (flushing nothing) if any dirty page is pinned: pin holders mutate
  /// contents outside the lock, so flushing one would write a torn image.
  /// Retry after the pin drains — checkpointers must not proceed without
  /// a clean flush.
  Status FlushAll() VECDB_EXCLUDES(alloc_mu_);

  /// Drops every mapping for `rel` (before DropRelation). Fails if any of
  /// its pages are still pinned.
  ///
  /// VECDB_NO_TSA: the table erases run with every partition held
  /// exclusively by an AllPartitionsLock, a lock over a runtime-indexed
  /// array of capabilities that the analysis cannot name. Each erase finds
  /// its partition from the frame's tag, which the held alloc_mu_ keeps
  /// stable.
  Status InvalidateRelation(RelId rel) VECDB_EXCLUDES(alloc_mu_) VECDB_NO_TSA;

  /// Aborts if pool bookkeeping is inconsistent: a tag-table entry pointing
  /// at an invalid or mismatched frame or filed under the wrong partition,
  /// an underflowed pin count, a usage count above the clock-sweep cap, a
  /// pinned invalid frame, or a valid frame missing from the table.
  /// Test/debug hook; safe to call concurrently with pins.
  void CheckInvariants() const VECDB_EXCLUDES(alloc_mu_);

  /// Counter snapshot: the per-partition counters summed; `pins` is
  /// hits + misses + NewPage calls. Each field is exact once concurrent
  /// pins have returned.
  BufferStats stats() const;
  /// Zeroes the counters. Pins racing with the reset may land on either
  /// side of it.
  void ResetStats();

  size_t pool_pages() const { return num_frames_; }
  uint32_t page_size() const { return page_size_; }

 private:
  // Frame state word layout (PostgreSQL's BUF_REFCOUNT/USAGECOUNT/flags).
  static constexpr uint32_t kRefOne = 1;
  static constexpr uint32_t kRefMask = (1u << 18) - 1;
  static constexpr uint32_t kUsageShift = 18;
  static constexpr uint32_t kUsageOne = 1u << kUsageShift;
  static constexpr uint32_t kMaxUsage = 5;
  static constexpr uint32_t kValid = 1u << 22;
  static constexpr uint32_t kDirty = 1u << 23;

  static uint32_t RefCount(uint32_t state) { return state & kRefMask; }
  static uint32_t Usage(uint32_t state) {
    return (state >> kUsageShift) & 0xF;
  }

  /// One frame's descriptor, padded to a cache line so pins of
  /// neighbouring frames do not share one (BufferDescPadded).
  struct alignas(64) BufferDesc {
    /// Refcount, usage and valid/dirty flags. Deliberately not
    /// lock-guarded: pinners CAS it under only a *shared* partition lock,
    /// Unpin changes it under no lock, and the sweeper decrements usage
    /// under alloc_mu_. Validity is only set or cleared under alloc_mu_
    /// (with the tag's partition held exclusively when it is mapped).
    std::atomic<uint32_t> state{0};
    /// The page's tag. Unguarded by design: written only under alloc_mu_
    /// while the frame is unmapped and unpinned, so it is stable for
    /// anyone holding a pin, the alloc_mu_, or the partition lock of a
    /// table entry that points here.
    RelId rel = kInvalidRel;
    BlockId block = kInvalidBlock;
  };

  /// Exact pool statistics, one cache line per partition, so concurrent
  /// hits bump different lines instead of one shared counter. Pins are
  /// not counted separately: every Pin is one hit or one miss, and every
  /// NewPage one new page, so a hit costs one counter bump, not two.
  struct alignas(64) PartitionCounters {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> new_pages{0};
    std::atomic<uint64_t> evictions{0};
  };

  /// One buffer-mapping partition: the tags that hash to it.
  struct alignas(64) Partition {
    mutable SharedMutex mu;
    std::unordered_map<uint64_t, int32_t> table VECDB_GUARDED_BY(mu);
    PartitionCounters counters;
  };

  /// Holds every partition exclusively, in ascending order, so no Pin can
  /// look a tag up while it lives. Whole-pool operations use it after
  /// taking alloc_mu_.
  class AllPartitionsLock {
   public:
    explicit AllPartitionsLock(const BufferManager& pool);
    ~AllPartitionsLock();
    AllPartitionsLock(const AllPartitionsLock&) = delete;
    AllPartitionsLock& operator=(const AllPartitionsLock&) = delete;

   private:
    const BufferManager& pool_;
  };

  static uint64_t TagKey(RelId rel, BlockId block) {
    return (static_cast<uint64_t>(rel) << 32) | block;
  }
  /// Fibonacci hash of the tag, so consecutive blocks spread out.
  static size_t PartitionIndex(uint64_t key) {
    return (key * 0x9E3779B97F4A7C15ull) >> (64 - kPartitionBits);
  }
  Partition& PartitionFor(uint64_t key) {
    return partitions_[PartitionIndex(key)];
  }
  const Partition& PartitionFor(uint64_t key) const {
    return partitions_[PartitionIndex(key)];
  }
  char* FrameData(int32_t frame) {
    return pool_.data() + static_cast<size_t>(frame) * page_size_;
  }

  /// Looks `key` up under the partition's shared lock and, if mapped, pins
  /// its frame. Returns the frame, or -1 when the page is not resident.
  int32_t LookupAndPin(Partition& part, uint64_t key)
      VECDB_EXCLUDES(part.mu);

  /// Maps a freshly filled, pinned frame under its tag.
  void InstallFrame(int32_t frame, RelId rel, BlockId block, uint32_t state)
      VECDB_REQUIRES(alloc_mu_);

  /// Finds a victim frame via clock sweep; evicts (writing back if dirty).
  /// The returned frame is unmapped and invalid, and stays this caller's
  /// until alloc_mu_ is released. Fails with ResourceExhausted if all
  /// frames are pinned.
  Result<int32_t> AllocFrame() VECDB_REQUIRES(alloc_mu_);

  StorageManager* smgr_;       // const after construction
  const size_t num_frames_;    // descs_.size()
  const uint32_t page_size_;   // smgr_->page_size()
  std::vector<BufferDesc> descs_;
  /// Page bytes. Unguarded by design: the data of a *pinned* frame is
  /// read and written by callers outside every lock; the pin count is what
  /// keeps the frame from being reused underneath them.
  std::vector<char> pool_;
  std::array<Partition, kNumPartitions> partitions_;
  size_t clock_hand_ VECDB_GUARDED_BY(alloc_mu_) = 0;
  /// Read by every dirty Unpin without a lock; SetWal publishes it.
  std::atomic<WalManager*> wal_{nullptr};
  Status wal_error_ VECDB_GUARDED_BY(wal_error_mu_);
  mutable Mutex wal_error_mu_;
  mutable Mutex alloc_mu_;
};

}  // namespace vecdb::pgstub
