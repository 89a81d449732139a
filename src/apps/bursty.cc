#include "src/apps/bursty.h"

#include <algorithm>

#include "src/util/check.h"

namespace odapps {

namespace {
constexpr int kVideo = 0;
constexpr int kSpeech = 1;
constexpr int kWeb = 2;
constexpr int kMap = 3;
constexpr odsim::SimDuration kMinute = odsim::SimDuration::Seconds(60);
// Units per active minute for the request-driven applications.
constexpr int kUnitsPerMinute = 5;
}  // namespace

BurstyWorkload::BurstyWorkload(odsim::Simulator* sim, VideoPlayer* video,
                               SpeechRecognizer* speech, WebBrowser* web,
                               MapViewer* map, odutil::Rng* rng,
                               const Config& config)
    : sim_(sim),
      video_(video),
      speech_(speech),
      web_(web),
      map_(map),
      rng_(rng),
      config_(config) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(video != nullptr);
  OD_CHECK(speech != nullptr);
  OD_CHECK(web != nullptr);
  OD_CHECK(map != nullptr);
  OD_CHECK(rng != nullptr);
}

void BurstyWorkload::Start() {
  OD_CHECK(!running_);
  running_ = true;
  minute_index_ = 0;
  recorded_.minutes.clear();
  if (config_.replay.empty()) {
    for (bool& a : active_) {
      a = rng_->Bernoulli(0.5);
    }
  }
  MinuteTick();
}

void BurstyWorkload::Stop() {
  running_ = false;
  tick_.Cancel();
}

void BurstyWorkload::MinuteTick() {
  if (!running_) {
    return;
  }
  odsim::SimTime now = sim_->Now();
  if (!config_.replay.empty()) {
    size_t index = std::min(minute_index_, config_.replay.minutes.size() - 1);
    active_ = config_.replay.minutes[index];
  } else {
    for (bool& a : active_) {
      if (rng_->Bernoulli(config_.switch_probability)) {
        a = !a;
      }
    }
  }
  for (int i = 0; i < 4; ++i) {
    if (active_[static_cast<size_t>(i)]) {
      active_until_[static_cast<size_t>(i)] = now + kMinute;
    }
  }
  recorded_.minutes.push_back(active_);
  ++minute_index_;
  if (video_active()) {
    DriveVideo();
  }
  for (int app : {kSpeech, kWeb, kMap}) {
    size_t i = static_cast<size_t>(app);
    if (active_[i] && !chain_running_[i]) {
      DriveRate(app);
    }
  }
  tick_ = sim_->Schedule(kMinute, [this] { MinuteTick(); });
}

void BurstyWorkload::DriveVideo() {
  if (!running_ || video_->playing() || chain_running_[kVideo]) {
    return;
  }
  if (sim_->Now() >= active_until_[kVideo]) {
    return;
  }
  chain_running_[kVideo] = true;
  const auto& clips = StandardVideoClips();
  const VideoClip& clip =
      clips[static_cast<size_t>(next_object_[kVideo]++ % 4)];
  odsim::SimDuration remaining = active_until_[kVideo] - sim_->Now();
  video_->PlaySegment(clip, remaining, [this] {
    chain_running_[kVideo] = false;
    DriveVideo();
  });
}

void BurstyWorkload::DriveRate(int app) {
  const size_t i = static_cast<size_t>(app);
  auto busy = [&] {
    return app == kSpeech ? speech_->busy()
                          : app == kWeb ? web_->busy() : map_->busy();
  };
  if (!running_ || sim_->Now() >= active_until_[i] || busy()) {
    chain_running_[i] = false;
    return;
  }
  chain_running_[i] = true;
  odsim::SimTime unit_start = sim_->Now();
  auto next_unit = [this, app, unit_start] {
    odsim::SimTime next =
        unit_start + odsim::SimDuration::Seconds(60.0 / kUnitsPerMinute);
    if (next <= sim_->Now()) {
      DriveRate(app);
    } else {
      sim_->ScheduleAt(next, [this, app] { DriveRate(app); });
    }
  };
  const size_t object = static_cast<size_t>(next_object_[i]++ % 4);
  if (app == kSpeech) {
    speech_->Recognize(StandardUtterances()[object], next_unit);
  } else if (app == kWeb) {
    web_->BrowsePage(StandardWebImages()[object], next_unit);
  } else {
    map_->ViewMap(StandardMaps()[object], next_unit);
  }
}

}  // namespace odapps
