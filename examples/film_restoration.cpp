// Film restoration: archive an image payload to 35 mm cinema-film frames
// (the paper's third experiment), age and scan the film with damage —
// including losing whole frames — and restore the payload.

#include <cstdio>

#include "core/micr_olonys.h"
#include "filmstore/frame_store.h"
#include "media/profiles.h"
#include "media/scanner.h"
#include "support/random.h"

using namespace ule;

int main() {
  // A ~102 KB synthetic "logo" payload (the paper archived a 102 KB TIFF).
  Rng rng(1968);
  std::string payload;
  payload.reserve(102 * 1000);
  while (payload.size() < 102 * 1000) {
    payload += "OLONYS LOGO SCANLINE ";
    for (int i = 0; i < 24; ++i) {
      payload.push_back(static_cast<char>('0' + rng.Below(10)));
    }
    payload.push_back('\n');
  }

  const media::MediaProfile film = media::CinemaFilm35mm();
  core::ArchiveOptions options;
  options.emblem.dots_per_cell = 2;  // 2K frames scanned at 4K
  options.emblem.data_side = film.frame_height / 2 - 2 * 5 - 2 * 2;

  filmstore::MemoryStore reel;
  auto archive = core::ArchiveDumpStreaming(payload, options, reel);
  if (!archive.ok()) {
    std::printf("archive failed: %s\n", archive.status().ToString().c_str());
    return 1;
  }
  std::printf("payload: %zu bytes -> %zu data emblems in %dx%d frames "
              "(paper: 102 KB -> 3 emblems)\n",
              payload.size(), archive.value().data_frames, film.frame_width,
              film.frame_height);

  // The film ages in the vault, then is scanned; frame 1 is lost outright.
  const auto& data_frames = reel.frames(mocoder::StreamId::kData);
  std::vector<media::Image> data_scans;
  for (size_t i = 0; i < data_frames.size(); ++i) {
    if (i == 1) {
      std::printf("frame %zu: destroyed (splice damage)\n", i);
      continue;
    }
    media::ScanProfile aging;
    aging.fade = 0.15;
    aging.dust_per_megapixel = 4;
    aging.scratch_count = 1;
    aging.seed = 100 + i;
    const media::Image aged = media::Age(data_frames[i], aging);
    data_scans.push_back(media::Scan(aged, film.scan));
  }
  std::vector<media::Image> system_scans;
  for (const auto& img : reel.frames(mocoder::StreamId::kSystem)) {
    system_scans.push_back(media::Scan(img, film.scan));
  }

  core::RestoreStats stats;
  filmstore::VectorSource data_source(data_scans);
  filmstore::VectorSource system_source(system_scans);
  auto restored = core::RestoreNativeStreaming(
      data_source, &system_source, archive.value().emblem_options, &stats);
  if (!restored.ok()) {
    std::printf("restore failed: %s\n", restored.status().ToString().c_str());
    return 1;
  }
  std::printf("decoded %d/%d scanned emblems, outer code rebuilt %d lost "
              "emblem(s), %d byte errors corrected by the inner code\n",
              stats.data_stream.emblems_decoded,
              stats.data_stream.emblems_total,
              stats.data_stream.emblems_recovered,
              stats.data_stream.rs_errors_corrected);
  std::printf("payload byte-exact after restoration: %s\n",
              restored.value() == payload ? "yes" : "NO");
  return restored.value() == payload ? 0 : 1;
}
