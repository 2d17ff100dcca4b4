// SpillChunkPager: the NXB1-backed ChunkPager. Evicted NDArray chunks are
// serialized through the same wire format and scratch-file machinery the
// relational spill paths use — one RAII SpillFile per parked chunk,
// unlinked on fault-in, drop, or pager destruction. This is what lets the
// array engine's big-op results (regrid, window, element-wise merges) obey
// the same memory budget as hash joins: chunks beyond the budget park on
// disk and fault back in transparently on access.
#ifndef NEXUS_EXEC_SPILL_CHUNK_PAGER_H_
#define NEXUS_EXEC_SPILL_CHUNK_PAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/spill/spill.h"
#include "types/ndarray.h"

namespace nexus {
namespace spill {

class SpillChunkPager : public ChunkPager {
 public:
  /// `tag` labels the scratch files (e.g. the producing operator).
  explicit SpillChunkPager(SpillManager* manager, std::string tag);
  ~SpillChunkPager() override = default;

  Status PageOut(int64_t key, ArrayChunk chunk) override;
  Result<ArrayChunk> PageIn(int64_t key) override;
  void Drop(int64_t key) override;
  int64_t paged_bytes() const override;

  int64_t chunks_paged_out() const { return paged_out_; }
  int64_t chunks_paged_in() const { return paged_in_; }

 private:
  /// One parked chunk: geometry stays in memory (it is tiny and needed to
  /// rebuild the chunk), the payload lives in the scratch file as a table
  /// of attribute columns plus the occupancy mask.
  struct Entry {
    std::unique_ptr<SpillFile> file;
    std::vector<int64_t> grid;
    std::vector<int64_t> lo;
    std::vector<int64_t> extent;
    SchemaPtr schema;  // attrs (synthesized names) + "__occ"
  };

  SpillManager* manager_;
  std::string tag_;
  mutable std::mutex mu_;
  std::map<int64_t, Entry> entries_;  // guarded by mu_
  int64_t paged_out_ = 0;             // guarded by mu_
  int64_t paged_in_ = 0;              // guarded by mu_
};

/// Attaches a SpillChunkPager to `array` and evicts chunks until its
/// resident payload fits the calling query's spill budget. No-op (returns
/// 0) when spilling is off, the budget is unset, or the array already
/// fits. The array engine calls this on freshly built big-op results.
Result<int64_t> ShedArray(const std::shared_ptr<NDArray>& array,
                          const std::string& tag);

}  // namespace spill
}  // namespace nexus

#endif  // NEXUS_EXEC_SPILL_CHUNK_PAGER_H_
