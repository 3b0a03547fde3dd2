#include "pll/servable.hpp"

#include <fstream>
#include <utility>

#include "obs/trace.hpp"
#include "pll/mmap_store.hpp"

namespace parapll::pll {

namespace {

ServableIndex WrapHeap(Index index) {
  auto owner = std::make_shared<Index>(std::move(index));
  ServableIndex servable;
  servable.manifest = owner->Manifest();
  servable.order = owner->Order();
  servable.backend = StoreBackend::kHeap;
  servable.format_version = servable.manifest.format_version;
  // Aliasing constructor: the source pointer is the index's store, the
  // control block keeps the whole index alive.
  servable.source =
      std::shared_ptr<const LabelSource>(owner, &owner->Store());
  return servable;
}

}  // namespace

ServableIndex ServableIndex::FromIndex(Index index) {
  return WrapHeap(std::move(index));
}

ServableIndex ServableIndex::Load(const std::string& path,
                                  StoreBackend backend) {
  if (backend == StoreBackend::kHeap) {
    // Index::LoadFile records the cold-start metrics itself.
    const std::uint64_t heap_start_ns = obs::TraceNowNs();
    ServableIndex servable = WrapHeap(Index::LoadFile(path));
    servable.load_seconds =
        static_cast<double>(obs::TraceNowNs() - heap_start_ns) / 1e9;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in) {
      servable.file_bytes = static_cast<std::size_t>(in.tellg());
    }
    return servable;
  }

  const std::uint64_t start_ns = obs::TraceNowNs();
  std::shared_ptr<MmapLabelStore> store = MmapLabelStore::Open(path);
  ServableIndex servable;
  servable.manifest = store->Manifest();
  servable.order.assign(store->OrderSpan().begin(), store->OrderSpan().end());
  servable.file_bytes = store->FileBytes();
  servable.source = std::move(store);
  servable.backend = backend;
  servable.format_version = servable.manifest.format_version;
  servable.load_seconds =
      static_cast<double>(obs::TraceNowNs() - start_ns) / 1e9;
  RecordIndexLoad(path, servable.format_version, servable.file_bytes,
                  ToString(backend), servable.load_seconds);
  return servable;
}

}  // namespace parapll::pll
