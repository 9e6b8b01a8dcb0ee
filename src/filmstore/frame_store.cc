#include "filmstore/frame_store.h"

namespace ule {
namespace filmstore {

Status MemoryStore::Append(mocoder::StreamId id,
                           const mocoder::EncodedEmblem& emblem,
                           media::Image&& frame) {
  Stream& stream = Slot(id);
  stream.emblems.push_back(emblem);
  stream.frames.push_back(std::move(frame));
  return Status::OK();
}

std::unique_ptr<FrameSource> MemoryStore::OpenFrames(
    mocoder::StreamId id) const {
  return std::make_unique<VectorSource>(Slot(id).frames);
}

}  // namespace filmstore
}  // namespace ule
