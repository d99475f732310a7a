module roar/benchmark

go 1.24

require roar v0.0.0

replace roar => ../
