module fmmfam/fmmbench

go 1.24

require fmmfam v0.0.0

replace fmmfam => ../
